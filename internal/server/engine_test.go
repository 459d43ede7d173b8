package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/kv"
)

// execWithRetry drives one spec to commit, retrying aborts, and reports
// the attempts used.
func execWithRetry(t *testing.T, e Engine, spec TxnSpec) int {
	t.Helper()
	for attempts := 1; ; attempts++ {
		err := e.Exec(context.Background(), spec)
		if err == nil {
			return attempts
		}
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("Exec: %v", err)
		}
		if attempts > 10000 {
			t.Fatal("transaction starved: 10000 aborts")
		}
		// A retry is a new, younger transaction: under wait-die it dies
		// again at once unless the older holder gets to run and finish, and
		// with more workers than cores it only does if the loser yields.
		runtime.Gosched()
	}
}

// testEngineNoLostUpdates checks the engine's fundamental guarantee: under
// heavy goroutine concurrency on a tiny store, every committed write is
// durable — the final cell values sum to the number of committed
// increments.
func testEngineNoLostUpdates(t *testing.T, name string) {
	t.Helper()
	const (
		items   = 8 // tiny store: maximal contention
		workers = 16
		perG    = 50
	)
	store := kv.NewStore(items)
	eng, err := NewEngine(name, store)
	if err != nil {
		t.Fatal(err)
	}
	var committedWrites atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k1 := (seed + i) % items
				k2 := (seed + i + 3) % items
				spec := TxnSpec{Keys: []int{k1}, Write: []bool{true}}
				if k2 != k1 {
					spec.Keys = append(spec.Keys, k2)
					spec.Write = append(spec.Write, true)
				}
				execWithRetry(t, eng, spec)
				committedWrites.Add(int64(len(spec.Keys)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("engine %s deadlocked", name)
	}

	var sum int64
	for i := 0; i < items; i++ {
		sum += store.Read(i)
	}
	if want := committedWrites.Load(); sum != want {
		t.Fatalf("engine %s lost updates: store sums to %d, committed writes %d", name, sum, want)
	}
}

func TestOCCEngineNoLostUpdates(t *testing.T)     { testEngineNoLostUpdates(t, "occ") }
func TestCertEngineNoLostUpdates(t *testing.T)    { testEngineNoLostUpdates(t, "cert") }
func TestTwoPLEngineNoLostUpdates(t *testing.T)   { testEngineNoLostUpdates(t, "2pl") }
func TestWaitDieEngineNoLostUpdates(t *testing.T) { testEngineNoLostUpdates(t, "wait-die") }

// TestCCEngineCancelWhileBlocked checks that a transaction abandoned while
// waiting for a lock aborts cleanly and releases its claims: a writer
// holds key 0 hostage long enough for a second writer to block, the second
// writer's context expires, and afterwards the key is free again.
func TestCCEngineCancelWhileBlocked(t *testing.T) {
	store := kv.NewStore(4)
	eng, err := NewEngine("2pl", store)
	if err != nil {
		t.Fatal(err)
	}

	// A custom engine wrapper is not available here, so create the hostage
	// situation with raw concurrency: goroutine A repeatedly runs long
	// write transactions on key 0 while B tries with tiny deadlines.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		spec := TxnSpec{Keys: []int{0, 1, 2, 3}, Write: []bool{true, true, true, true}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Exec(context.Background(), spec)
		}
	}()

	deadlineHits := 0
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
		err := eng.Exec(ctx, TxnSpec{Keys: []int{0}, Write: []bool{true}})
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			deadlineHits++
		}
	}
	close(stop)
	wg.Wait()

	// After the storm, a plain transaction must still get through: nothing
	// may be left holding key 0.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := eng.Exec(ctx, TxnSpec{Keys: []int{0}, Write: []bool{true}}); err != nil {
		t.Fatalf("store wedged after cancelled waiters: %v", err)
	}
	t.Logf("deadline hits: %d/200", deadlineHits)
}

// TestCertEngineConflictsAbort checks the optimistic protocol adapter
// actually aborts on certification conflicts (rather than silently
// serializing), so the abort-rate signal the controller consumes is real.
func TestCertEngineConflictsAbort(t *testing.T) {
	store := kv.NewStore(2)
	eng, err := NewEngine("cert", store)
	if err != nil {
		t.Fatal(err)
	}
	// Transactions are sub-microsecond, so on a single-CPU machine
	// interleavings only arise from preemption: hammer until the first
	// conflict shows up instead of fixing an iteration count.
	var aborts atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := TxnSpec{Keys: []int{0, 1}, Write: []bool{true, true}}
			for ctx.Err() == nil && aborts.Load() == 0 {
				if errors.Is(eng.Exec(context.Background(), spec), ErrAborted) {
					aborts.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if aborts.Load() == 0 {
		t.Fatal("concurrent write-write transactions on 2 items never produced a certification abort")
	}
}

func TestNewEngineUnknown(t *testing.T) {
	if _, err := NewEngine("bogus", kv.NewStore(1)); err == nil {
		t.Fatal("expected error for unknown engine name")
	}
}

func TestTxnSpecUpdate(t *testing.T) {
	if (TxnSpec{Keys: []int{1}, Write: []bool{false}}).Update() {
		t.Fatal("all-read spec reported as update")
	}
	if !(TxnSpec{Keys: []int{1, 2}, Write: []bool{false, true}}).Update() {
		t.Fatal("writing spec not reported as update")
	}
}
