// Package kv is a small in-memory versioned key-value store with optimistic
// concurrency control by backward validation — a live, goroutine-concurrent
// counterpart of the paper's timestamp certification scheme. It exists so
// the examples can demonstrate adaptive load control on *real* concurrent
// transactions (goroutines) rather than only in simulation.
//
// A transaction reads versioned values, buffers writes, and validates at
// commit: if any item it read changed since, the commit fails with
// ErrConflict and the caller retries. Heavy multiprogramming therefore
// wastes work in exactly the way the paper's §1 describes.
//
// The store is sharded: items are interleaved over a power-of-two number
// of shards, each with its own lock and commit/abort counters, so
// independent transactions proceed without touching a shared cache line.
// A commit locks the (deduped) set of shards its read and write sets
// touch in ascending index order — cross-shard read-modify-writes stay
// atomic and the fixed order makes deadlock impossible.
package kv

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// ErrConflict is returned by Txn.Commit when validation fails; the caller
// should retry the transaction.
var ErrConflict = errors.New("kv: certification conflict, retry")

// MaxShards bounds the shard count; shard sets are tracked as a uint64
// bitmask during commit, so it cannot exceed 64.
const MaxShards = 64

// MaxTxnClasses bounds the per-class conflict accounting: transactions
// may carry a class index in [0, MaxTxnClasses) (via Txn.WithClass) and
// each shard keeps commit/abort counters per class. Indexes outside the
// range clamp to class 0, the default.
const MaxTxnClasses = 16

// shard owns the items whose index i satisfies i&mask == its position.
// The trailing pad keeps neighbouring shards' locks and counters on
// separate cache lines.
type shard struct {
	mu      sync.RWMutex
	vals    []int64
	vers    []uint64
	commits uint64
	aborts  uint64
	// Per-class commit/abort counters (class 0 = default); the scalar
	// totals above stay authoritative for aggregate Stats.
	classCommits [MaxTxnClasses]uint64
	classAborts  [MaxTxnClasses]uint64
	_            [40]byte
}

// Store is a fixed-size array of versioned cells, interleaved over shards.
type Store struct {
	shards []shard
	bits   uint // log2(len(shards))
	mask   int  // len(shards) - 1
	n      int

	// txns pools transactions for the BeginPooled/Release fast path: a
	// released Txn keeps its (cleared) read/write maps, so the serving
	// hot path begins and commits transactions without allocating.
	txns sync.Pool
}

// NewStore returns a store with n zero-valued items and an automatic
// shard count (the next power of two at or above GOMAXPROCS, at most
// MaxShards).
func NewStore(n int) *Store { return NewStoreShards(n, 0) }

// NewStoreShards returns a store with n zero-valued items spread over the
// given number of shards. shards is rounded up to the next power of two
// and clamped to [1, MaxShards]; 0 selects the automatic count (next
// power of two ≥ GOMAXPROCS). Use shards=1 for the unsharded baseline.
func NewStoreShards(n, shards int) *Store {
	if n < 1 {
		panic(fmt.Sprintf("kv: store size %d < 1", n))
	}
	if shards < 0 {
		panic(fmt.Sprintf("kv: shard count %d < 0", shards))
	}
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	shards = normalizeShards(shards)
	st := &Store{
		shards: make([]shard, shards),
		bits:   uint(bits.TrailingZeros(uint(shards))),
		mask:   shards - 1,
		n:      n,
	}
	for i := range st.shards {
		// Shard i owns items i, i+S, i+2S, … < n.
		ln := (n - i + shards - 1) / shards
		st.shards[i].vals = make([]int64, ln)
		st.shards[i].vers = make([]uint64, ln)
	}
	return st
}

// normalizeShards rounds up to a power of two within [1, MaxShards].
func normalizeShards(s int) int {
	if s < 1 {
		return 1
	}
	if s > MaxShards {
		return MaxShards
	}
	p := 1
	for p < s {
		p <<= 1
	}
	return p
}

// Size returns the number of items.
func (s *Store) Size() int { return s.n }

// Shards returns the number of shards.
func (s *Store) Shards() int { return len(s.shards) }

// Stats returns (commits, aborts) so far, aggregated across shards.
func (s *Store) Stats() (commits, aborts uint64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		commits += sh.commits
		aborts += sh.aborts
		sh.mu.RUnlock()
	}
	return commits, aborts
}

// ClassStats returns (commits, aborts) so far for one transaction class,
// aggregated across shards. Out-of-range classes clamp to class 0,
// mirroring WithClass.
func (s *Store) ClassStats(class int) (commits, aborts uint64) {
	class = clampClass(class)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		commits += sh.classCommits[class]
		aborts += sh.classAborts[class]
		sh.mu.RUnlock()
	}
	return commits, aborts
}

// clampClass folds any class index into the tracked range.
func clampClass(c int) int {
	if c < 0 || c >= MaxTxnClasses {
		return 0
	}
	return c
}

// Txn is one optimistic transaction. Not safe for concurrent use by
// multiple goroutines (one transaction = one goroutine, as in the model).
type Txn struct {
	s        *Store
	class    int
	readVers map[int]uint64
	writes   map[int]int64
}

// Begin starts a transaction in class 0.
func (s *Store) Begin() *Txn {
	return &Txn{s: s, readVers: make(map[int]uint64), writes: make(map[int]int64)}
}

// BeginPooled starts a transaction in class 0 using the store's
// transaction pool: the returned Txn reuses the cleared read/write maps
// of a previously Released one, so the steady-state Begin→access→Commit→
// Release cycle performs no allocation. The caller must call Release
// exactly once when done with the transaction (after Commit or on
// abandonment) and must not touch it afterwards.
//
//loadctl:hotpath
func (s *Store) BeginPooled() *Txn {
	t, ok := s.txns.Get().(*Txn)
	if !ok {
		return s.Begin() //loadctl:allocok audited: pool miss — cold start only, the steady state reuses released transactions
	}
	t.class = 0
	return t
}

// Release clears the transaction and returns it to the store's pool for
// BeginPooled to reuse. The transaction must not be used after Release.
//
//loadctl:hotpath
func (t *Txn) Release() {
	clear(t.readVers)
	clear(t.writes)
	t.s.txns.Put(t)
}

// WithClass tags the transaction with a class index for the per-class
// commit/abort counters; out-of-range indexes clamp to class 0. It
// returns the transaction for chaining.
//
//loadctl:hotpath
func (t *Txn) WithClass(class int) *Txn {
	t.class = clampClass(class)
	return t
}

// Get reads item i, recording its version for commit-time validation.
// Reads see the transaction's own uncommitted writes.
//
//loadctl:hotpath
func (t *Txn) Get(i int) int64 {
	if v, ok := t.writes[i]; ok {
		return v
	}
	sh := &t.s.shards[i&t.s.mask]
	sh.mu.RLock()
	val := sh.vals[i>>t.s.bits]
	ver := sh.vers[i>>t.s.bits]
	sh.mu.RUnlock()
	if _, seen := t.readVers[i]; !seen {
		t.readVers[i] = ver
	}
	return val
}

// Set buffers a write of item i.
//
//loadctl:hotpath
func (t *Txn) Set(i int, v int64) { t.writes[i] = v }

// Commit validates and atomically installs the write set. It returns
// ErrConflict if any item read by the transaction changed since it was
// read (backward validation, as in the paper's timestamp certification).
// All shards touched by the read and write sets are locked together, in
// ascending index order, so validation plus install is one atomic step
// even across shards and lock acquisition cannot deadlock. The commit or
// abort is filed on the first shard the transaction touches.
//
//loadctl:hotpath
func (t *Txn) Commit() error {
	s := t.s
	touched := t.touchedMask()
	first := &s.shards[bits.TrailingZeros64(touched)]
	s.lockShards(touched)
	defer s.unlockShards(touched)
	for i, ver := range t.readVers {
		if s.shards[i&s.mask].vers[i>>s.bits] != ver {
			first.aborts++
			first.classAborts[t.class]++
			return ErrConflict
		}
	}
	for i, v := range t.writes {
		sh := &s.shards[i&s.mask]
		sh.vals[i>>s.bits] = v
		sh.vers[i>>s.bits]++
	}
	first.commits++
	first.classCommits[t.class]++
	return nil
}

// touchedMask is the bitmask of shards the transaction's read and write
// sets touch (never zero: an empty transaction is pinned to shard 0 so
// its commit still counts somewhere stable).
//
//loadctl:hotpath
func (t *Txn) touchedMask() uint64 {
	var touched uint64
	for i := range t.readVers {
		touched |= 1 << uint(i&t.s.mask)
	}
	for i := range t.writes {
		touched |= 1 << uint(i&t.s.mask)
	}
	if touched == 0 {
		touched = 1
	}
	return touched
}

// lockShards write-locks the shards in the bitmask in ascending order.
//
//loadctl:locks
func (s *Store) lockShards(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
}

// unlockShards releases the shards in the bitmask.
//
//loadctl:unlocks
func (s *Store) unlockShards(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		s.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// Update runs fn inside a transaction, retrying on conflict up to maxRetry
// times (0 = unbounded). It returns the number of attempts used and the
// terminal error (nil on success).
func (s *Store) Update(maxRetry int, fn func(*Txn) error) (attempts int, err error) {
	for {
		attempts++
		t := s.Begin()
		if err := fn(t); err != nil {
			return attempts, err
		}
		err = t.Commit()
		if err == nil {
			return attempts, nil
		}
		if !errors.Is(err, ErrConflict) {
			return attempts, err
		}
		if maxRetry > 0 && attempts > maxRetry {
			return attempts, err
		}
	}
}
