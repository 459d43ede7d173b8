package server

import (
	"context"
	"errors"
	"fmt"

	"github.com/tpctl/loadctl/internal/kv"
)

// ErrAborted is returned by Engine.Exec when concurrency control kills the
// attempt (a certification failure). The caller decides whether to
// restart — exactly the retry loop whose wasted work drives the thrashing
// the controllers fight.
var ErrAborted = errors.New("server: transaction aborted by concurrency control")

// TxnSpec is one transaction attempt: the items to access in order and the
// per-item write intent. A read-only spec is the paper's "query" shape; a
// spec with writes is an "updater". Class is the admission-class index,
// threaded through to the store's per-class conflict counters.
type TxnSpec struct {
	Keys  []int
	Write []bool
	Class int
}

// Update reports whether the spec writes at least one item.
func (s TxnSpec) Update() bool {
	for _, w := range s.Write {
		if w {
			return true
		}
	}
	return false
}

// Engine executes one transaction attempt against the shared store. Exec
// returns nil on commit, ErrAborted when the attempt must be restarted, or
// ctx.Err() when the caller gave up while blocked. Implementations are safe
// for concurrent use; one Exec call is one transaction incarnation.
type Engine interface {
	Exec(ctx context.Context, spec TxnSpec) error
	Name() string
}

// occEngine runs transactions through the kv store's native optimistic
// certification: fully concurrent reads, commit-time validation under the
// write locks of only the shards the transaction touched, so disjoint
// transactions commit in parallel.
type occEngine struct {
	store *kv.Store
}

// NewOCC returns the kv-native optimistic engine.
func NewOCC(store *kv.Store) Engine { return &occEngine{store: store} }

// Name implements Engine.
func (e *occEngine) Name() string { return "kv-occ" }

// Exec implements Engine. Each access reads the item; writes increment it,
// making every commit observable and every certification conflict real.
// The access loop re-checks ctx periodically so a large transaction whose
// client disconnected abandons instead of finishing work nobody will read.
// Transactions come from the store's pool (BeginPooled/Release), so one
// attempt allocates nothing in steady state.
//
//loadctl:hotpath
func (e *occEngine) Exec(ctx context.Context, spec TxnSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	txn := e.store.BeginPooled().WithClass(spec.Class)
	defer txn.Release()
	for i, key := range spec.Keys {
		if i&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := txn.Get(key)
		if spec.Write[i] {
			txn.Set(key, v+1)
		}
	}
	if err := txn.Commit(); err != nil {
		if errors.Is(err, kv.ErrConflict) {
			return ErrAborted
		}
		return err
	}
	return nil
}

// NewEngine builds an engine by name over the store. "occ" (or "") is
// the only engine; any other name is an error.
func NewEngine(name string, store *kv.Store) (Engine, error) {
	if name != "" && name != "occ" {
		return nil, fmt.Errorf("server: unknown engine %q (want occ)", name)
	}
	return NewOCC(store), nil
}
