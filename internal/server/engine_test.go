package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tpctl/loadctl/internal/kv"
)

// TestOCCEngineNoLostUpdates checks the engine's fundamental guarantee:
// under heavy goroutine concurrency on a tiny store, every committed
// write is durable — the final cell values sum to the number of committed
// increments.
func TestOCCEngineNoLostUpdates(t *testing.T) {
	const (
		items   = 8 // tiny store: maximal contention
		workers = 16
		perG    = 50
	)
	store := kv.NewStore(items)
	eng := NewOCC(store)
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
				for attempts := 1; ; attempts++ {
					err := eng.Exec(context.Background(), spec)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrAborted) {
						t.Errorf("Exec: %v", err)
						return
					}
					if attempts > 10000 {
						t.Error("transaction starved: 10000 aborts")
						return
					}
				}
				committedWrites.Add(int64(len(spec.Keys)))
			}
		}(w)
	}
	wg.Wait()

	txn := store.Begin()
	var sum int64
	for i := 0; i < items; i++ {
		sum += txn.Get(i)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("read-only sum: %v", err)
	}
	if want := committedWrites.Load(); sum != want {
		t.Fatalf("lost updates: store sums to %d, committed writes %d", sum, want)
	}
}

func TestNewEngineUnknown(t *testing.T) {
	// occ is the only engine; the cc-protocol engines are gone.
	for _, name := range []string{"bogus", "cert", "2pl", "wait-die"} {
		_, err := NewEngine(name, kv.NewStore(1))
		if err == nil || !strings.Contains(err.Error(), "occ") {
			t.Errorf("NewEngine(%q) = %v, want an error naming occ", name, err)
		}
	}
	for _, name := range []string{"", "occ"} {
		if _, err := NewEngine(name, kv.NewStore(1)); err != nil {
			t.Errorf("NewEngine(%q): %v", name, err)
		}
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
