package cc

import (
	"fmt"
	"maps"
	"slices"

	"github.com/tpctl/loadctl/internal/db"
)

// lockMode is the strength of a granted or requested lock.
type lockMode int

const (
	readLock lockMode = iota
	writeLock
)

// lockReq is a pending request in a lock's FIFO wait queue.
type lockReq struct {
	id   TxnID
	mode lockMode
}

// lockEntry is the state of one item in the lock table. holders maps each
// holding transaction to the strongest mode it holds.
type lockEntry struct {
	holders map[TxnID]lockMode
	queue   []lockReq
}

// TwoPL implements strict two-phase locking with read/write locks, FIFO
// wait queues, lock upgrades, and deadlock resolution by aborting the
// requester that would close a cycle in the waits-for graph. Blocked
// transactions are granted in arrival order when compatible locks free up;
// all locks are held to commit/abort (strictness).
type TwoPL struct {
	table map[db.Item]*lockEntry
	txns  map[TxnID]*plTxn
	stats Stats
	// waitsFor[a] = set of transactions a is waiting on (holders blocking
	// its single pending request). A transaction has at most one pending
	// request at a time (the engine issues accesses sequentially).
	waitsFor map[TxnID]map[TxnID]struct{}
	// waitDie switches deadlock handling from detection (waits-for cycle
	// search, requester aborts) to the wait-die prevention rule
	// (Rosenkrantz et al.): an older requester waits, a younger one dies.
	waitDie bool
	// beginSeq breaks start-timestamp ties for wait-die age comparison.
	beginSeq float64
}

type plTxn struct {
	held    map[db.Item]lockMode
	pending *lockReq // non-nil while blocked
	pendItm db.Item  // item of the pending request
	start   float64
}

// NewTwoPL returns an empty strict-2PL protocol instance with waits-for
// deadlock detection.
func NewTwoPL() *TwoPL {
	return &TwoPL{
		table:    make(map[db.Item]*lockEntry),
		txns:     make(map[TxnID]*plTxn),
		waitsFor: make(map[TxnID]map[TxnID]struct{}),
	}
}

// NewWaitDie returns strict 2PL with wait-die deadlock prevention: on a
// lock conflict an older requester waits and a younger one aborts
// immediately. Deadlock-free by construction (waiters only ever wait for
// younger transactions), at the price of extra restarts — a classic
// trade-off worth comparing against detection under load control.
func NewWaitDie() *TwoPL {
	p := NewTwoPL()
	p.waitDie = true
	return p
}

// Name implements Protocol.
func (p *TwoPL) Name() string {
	if p.waitDie {
		return "2pl-wait-die"
	}
	return "strict-2pl"
}

// Begin implements Protocol.
func (p *TwoPL) Begin(id TxnID, now float64) {
	if _, dup := p.txns[id]; dup {
		panic(fmt.Sprintf("cc: duplicate Begin for txn %d", id))
	}
	p.stats.Begins++
	p.beginSeq += 1e-12
	p.txns[id] = &plTxn{held: make(map[db.Item]lockMode), start: now + p.beginSeq}
}

// Access implements Protocol.
func (p *TwoPL) Access(id TxnID, item db.Item, write bool) AccessResult {
	t := p.mustTxn(id)
	if t.pending != nil {
		panic(fmt.Sprintf("cc: txn %d issued Access while blocked", id))
	}
	p.stats.Accesses++
	mode := readLock
	if write {
		mode = writeLock
	}
	e := p.entry(item)

	if held, ok := t.held[item]; ok {
		if held >= mode {
			return Granted // already strong enough
		}
		// Upgrade read -> write: must be sole holder and no queue jumping.
		if len(e.holders) == 1 && !p.writerQueuedAhead(e, id) {
			t.held[item] = writeLock
			e.holders[id] = writeLock
			return Granted
		}
		return p.block(id, t, e, item, mode)
	}

	if p.compatible(e, id, mode) {
		e.holders[id] = mode
		t.held[item] = mode
		return Granted
	}
	return p.block(id, t, e, item, mode)
}

// compatible reports whether id could be granted mode on e right now,
// respecting FIFO fairness (no overtaking queued requests).
func (p *TwoPL) compatible(e *lockEntry, id TxnID, mode lockMode) bool {
	if len(e.queue) > 0 {
		return false // FIFO: must queue behind earlier waiters
	}
	if len(e.holders) == 0 {
		return true
	}
	if mode == writeLock {
		return false
	}
	// read: compatible iff nobody holds write (order-free)
	for _, m := range e.holders {
		if m == writeLock {
			return false
		}
	}
	return true
}

func (p *TwoPL) writerQueuedAhead(e *lockEntry, id TxnID) bool {
	for _, r := range e.queue {
		if r.id != id {
			return true
		}
	}
	return false
}

// block enqueues the request unless deadlock policy forbids waiting: under
// detection the requester aborts when its wait would close a cycle; under
// wait-die it aborts when it is younger than any transaction it would wait
// for.
func (p *TwoPL) block(id TxnID, t *plTxn, e *lockEntry, item db.Item, mode lockMode) AccessResult {
	p.stats.Conflicts++
	// Build the wait set: current holders with conflicting modes plus all
	// queued requests ahead (FIFO means we wait on them too). The set, and
	// the die/cycle verdicts computed from it below, do not depend on map
	// iteration order.
	waits := make(map[TxnID]struct{})
	for h, m := range e.holders {
		if h == id {
			continue
		}
		if mode == writeLock || m == writeLock {
			waits[h] = struct{}{}
		}
	}
	for _, r := range e.queue {
		if r.id != id {
			waits[r.id] = struct{}{}
		}
	}
	if p.waitDie {
		for w := range waits {
			if other, ok := p.txns[w]; ok && t.start >= other.start {
				// Younger (or tied) requester dies.
				p.stats.Deadlocks++
				return AbortSelf
			}
		}
		p.waitsFor[id] = waits
	} else {
		p.waitsFor[id] = waits
		if p.cycleFrom(id) {
			delete(p.waitsFor, id)
			p.stats.Deadlocks++
			return AbortSelf
		}
	}
	req := lockReq{id: id, mode: mode}
	e.queue = append(e.queue, req)
	t.pending = &e.queue[len(e.queue)-1]
	t.pendItm = item
	return Blocked
}

// cycleFrom reports whether the waits-for graph contains a cycle reachable
// from start (DFS). Map order only changes which path is explored first,
// never the verdict.
func (p *TwoPL) cycleFrom(start TxnID) bool {
	seen := make(map[TxnID]bool)
	var dfs func(TxnID) bool
	dfs = func(v TxnID) bool {
		if v == start && len(seen) > 0 {
			return true
		}
		if seen[v] {
			return false
		}
		seen[v] = true
		for w := range p.waitsFor[v] {
			if w == start {
				return true
			}
			if dfs(w) {
				return true
			}
		}
		return false
	}
	for w := range p.waitsFor[start] {
		if w == start || dfs(w) {
			return true
		}
	}
	return false
}

// Certify implements Protocol. 2PL transactions are serializable by
// construction, so certification always succeeds.
func (p *TwoPL) Certify(id TxnID) bool {
	p.mustTxn(id)
	p.stats.Certifies++
	return true
}

// Commit implements Protocol.
func (p *TwoPL) Commit(id TxnID, now float64) []TxnID {
	t := p.mustTxn(id)
	if t.pending != nil {
		panic(fmt.Sprintf("cc: txn %d committed while blocked", id))
	}
	unblocked := p.releaseAll(id, t)
	delete(p.txns, id)
	p.stats.Commits++
	return unblocked
}

// Abort implements Protocol.
func (p *TwoPL) Abort(id TxnID) []TxnID {
	t := p.mustTxn(id)
	// Remove a pending request, if any.
	if t.pending != nil {
		e := p.entry(t.pendItm)
		for i := range e.queue {
			if e.queue[i].id == id {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				break
			}
		}
		t.pending = nil
		delete(p.waitsFor, id)
	}
	unblocked := p.releaseAll(id, t)
	delete(p.txns, id)
	p.stats.Aborts++
	return unblocked
}

// releaseAll frees every lock id holds and grants queued compatible
// requests in FIFO order across the affected items. Items are visited in
// ascending order: the unblocked list is the order in which the engine
// resumes transactions, so map order would make a seeded run
// irreproducible.
func (p *TwoPL) releaseAll(id TxnID, t *plTxn) []TxnID {
	var unblocked []TxnID
	for _, item := range slices.Sorted(maps.Keys(t.held)) {
		e := p.entry(item)
		delete(e.holders, id)
		unblocked = append(unblocked, p.grantQueued(item, e)...)
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(p.table, item)
		}
	}
	t.held = nil
	return unblocked
}

// grantQueued grants the longest compatible FIFO prefix of the wait queue.
func (p *TwoPL) grantQueued(item db.Item, e *lockEntry) []TxnID {
	var granted []TxnID
	for len(e.queue) > 0 {
		r := e.queue[0]
		rt := p.mustTxn(r.id)
		canGrant := false
		if _, alreadyHolds := e.holders[r.id]; alreadyHolds && r.mode == writeLock {
			// upgrade: sole holder required
			canGrant = len(e.holders) == 1
		} else if len(e.holders) == 0 {
			canGrant = true
		} else if r.mode == readLock {
			// read: grantable iff nobody holds write (order-free)
			canGrant = true
			for _, m := range e.holders {
				if m == writeLock {
					canGrant = false
					break
				}
			}
		}
		if !canGrant {
			break
		}
		e.queue = e.queue[1:]
		e.holders[r.id] = r.mode
		rt.held[item] = r.mode
		rt.pending = nil
		delete(p.waitsFor, r.id)
		granted = append(granted, r.id)
	}
	return granted
}

// Blocked implements Protocol.
func (p *TwoPL) Blocked(id TxnID) bool {
	t, ok := p.txns[id]
	return ok && t.pending != nil
}

// Stats implements Protocol.
func (p *TwoPL) Stats() Stats { return p.stats }

// Active returns the number of in-flight transactions.
func (p *TwoPL) Active() int { return len(p.txns) }

// BlockedCount returns how many transactions are currently waiting — the
// quantity whose quadratic growth drives blocking-class thrashing (Tay et
// al. 1985).
func (p *TwoPL) BlockedCount() int {
	n := 0
	for _, t := range p.txns {
		if t.pending != nil {
			n++
		}
	}
	return n
}

func (p *TwoPL) entry(item db.Item) *lockEntry {
	e, ok := p.table[item]
	if !ok {
		e = &lockEntry{holders: make(map[TxnID]lockMode)}
		p.table[item] = e
	}
	return e
}

func (p *TwoPL) mustTxn(id TxnID) *plTxn {
	t, ok := p.txns[id]
	if !ok {
		panic(fmt.Sprintf("cc: unknown txn %d", id))
	}
	return t
}
