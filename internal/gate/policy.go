// Package gate implements the load-control enforcement point of §4.3: a
// 'gate' in front of the transaction processing system that admits an
// arriving transaction if and only if the actual load n is below the
// current threshold n*; otherwise the transaction waits in a FCFS queue and
// is admitted as soon as n < n* holds again.
//
// There is one admission policy, Policy, and two drivers. The
// discrete-event simulator calls a one-class Policy directly from its event
// loop, with its transactions as the waiters, and builds the §4.3
// displacement alternative (enforcing a lowered threshold by aborting
// active transactions) on PushFront. Multi wraps a Policy with a mutex and
// parks goroutines on pooled channels; it serves everything live —
// loadctld's per-class admission and, as a one-class Multi, the public
// loadctl.AdaptiveGate.
package gate

import (
	"fmt"
	"math"
	"slices"
)

// Policy is the admission rule set itself: per-class admission drawing
// from one shared capacity pool. Heiss & Wagner define load control over
// transaction *classes* — the optimal multiprogramming level depends on
// the mix competing for data — so the policy tracks, per class, its own
// active count, FCFS queue and counters, while capacity is allocated
// across classes by weighted fair shares with strict-priority handling of
// surplus and overload:
//
//   - Pool mode (the default): a single limit C is split into guaranteed
//     shares C·w_c/Σw. A class below its share admits immediately while
//     the pool has room. A class at or above its share may borrow idle
//     capacity (work-conserving), but never while any other class has
//     waiters — queued demand always beats borrowing. Freed slots go
//     first to queued classes still below their share (highest priority
//     first), then to the remaining queued classes in strict priority
//     order, so under overload the lowest-priority classes are the ones
//     that starve and shed while high-priority classes keep their
//     weighted share.
//
//   - Per-class mode: every class has an independent limit and admits
//     exactly like its own one-class policy; the pool is Σ limits. This is
//     the shape used when a separate adaptive controller steers each class.
//
// Policy has no clock, no lock and no channels; the caller serializes
// every call. W is what the caller queues: Multi queues pooled channels
// its goroutines park on, the simulator queues its transactions. Whenever
// the pump dequeues a waiter it hands it to the admit function given to
// NewPolicy, synchronously and after counting the admission.
//
// Every class keeps the identity Arrivals == Admitted + Rejected +
// Timeouts + Queued.
type Policy[W comparable] struct {
	classes  []*class[W]
	byName   map[string]int
	perClass bool
	pool     float64 // pool-mode shared limit C
	active   int     // Σ per-class active
	sumW     float64 // Σ weights
	admit    func(W)
}

type class[W comparable] struct {
	spec   ClassSpec
	limit  float64 // per-class-mode limit
	active int
	queue  []W // waiters in admission order

	arrivals uint64
	admitted uint64
	rejected uint64
	timeouts uint64
	queueMax int
}

// NewPolicy returns a policy in pool mode with the given shared limit
// (math.Inf(1) for uncontrolled) that hands dequeued waiters to admit.
// Class names must be unique and non-empty; weights default to 1 and must
// not be negative. Per-class limits start at each class's guaranteed
// share, so an immediate switch to per-class mode is capacity-neutral.
func NewPolicy[W comparable](specs []ClassSpec, poolLimit float64, admit func(W)) (*Policy[W], error) {
	if math.IsNaN(poolLimit) {
		return nil, fmt.Errorf("gate: pool limit must not be NaN")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gate: at least one class is required")
	}
	p := &Policy[W]{pool: poolLimit, byName: make(map[string]int, len(specs)), admit: admit}
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("gate: class name must not be empty")
		}
		if _, dup := p.byName[sp.Name]; dup {
			return nil, fmt.Errorf("gate: duplicate class %q", sp.Name)
		}
		if sp.Weight < 0 || math.IsNaN(sp.Weight) {
			return nil, fmt.Errorf("gate: class %q has invalid weight %v", sp.Name, sp.Weight)
		}
		if sp.Weight == 0 {
			sp.Weight = 1
		}
		p.byName[sp.Name] = len(p.classes)
		p.classes = append(p.classes, &class[W]{spec: sp})
		p.sumW += sp.Weight
	}
	for _, c := range p.classes {
		c.limit = p.share(c)
	}
	return p, nil
}

// share is class c's guaranteed slice of the pool.
func (p *Policy[W]) share(c *class[W]) float64 {
	if p.sumW <= 0 {
		return p.pool
	}
	return p.pool * c.spec.Weight / p.sumW
}

// Admit admits an arrival of class ci at once if the rules allow,
// counting it as an arrival and an admission. On refusal it counts
// nothing: the caller then disposes of the arrival with Enqueue or
// Reject, which count it.
func (p *Policy[W]) Admit(ci int) bool {
	c := p.classes[ci]
	switch {
	case len(c.queue) > 0: // FCFS within a class: never jump over own waiters
		return false
	case p.perClass:
		if float64(c.active) >= c.limit {
			return false
		}
	case float64(p.active) >= p.pool:
		return false
	case float64(c.active) >= p.share(c) && p.Queued() > 0:
		// Borrowing beyond the share goes only into genuinely idle
		// capacity: queued demand elsewhere has first claim on the slot.
		return false
	}
	c.arrivals++
	c.active++
	p.active++
	c.admitted++
	return true
}

// Enqueue counts an arrival of class ci that Admit refused and queues w
// at the tail of the class queue.
func (p *Policy[W]) Enqueue(ci int, w W) {
	c := p.classes[ci]
	c.arrivals++
	c.queue = append(c.queue, w) //loadctl:allocok audited: queue growth only — the backing array is retained across append cycles, so steady-state queueing does not allocate
	c.noteQueue()
}

// Reject counts an arrival of class ci that Admit refused and that is
// shed rather than queued.
func (p *Policy[W]) Reject(ci int) {
	c := p.classes[ci]
	c.arrivals++
	c.rejected++
}

// PushFront queues w at the head of class ci's queue, ahead of every
// waiter, and counts it as an arrival. It is for a waiter that was
// admitted and has been displaced (§4.3 option ii): it already waited
// once, so it outranks later arrivals. PushFront does not pump; the
// Depart that frees the displaced slot does.
func (p *Policy[W]) PushFront(ci int, w W) {
	c := p.classes[ci]
	c.arrivals++
	c.queue = slices.Insert(c.queue, 0, w)
	c.noteQueue()
}

func (c *class[W]) noteQueue() {
	if len(c.queue) > c.queueMax {
		c.queueMax = len(c.queue)
	}
}

// Depart frees a slot held by class ci and re-runs admission.
func (p *Policy[W]) Depart(ci int) {
	c := p.classes[ci]
	if c.active <= 0 {
		panic(fmt.Sprintf("gate: release of class %q without matching admission", c.spec.Name)) //loadctl:allocok audited: programming-error panic path, never taken in a correct caller
	}
	c.active--
	p.active--
	p.pump()
}

// Withdraw settles a waiter of class ci whose caller gave up, counting a
// timeout. If w is still queued it leaves the queue. Otherwise the pump
// already admitted it without the caller observing the grant, so the slot
// is handed back and the admission becomes the timeout.
func (p *Policy[W]) Withdraw(ci int, w W) {
	c := p.classes[ci]
	c.timeouts++
	if i := slices.Index(c.queue, w); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
		return
	}
	c.active--
	p.active--
	c.admitted--
	p.pump()
}

// pump hands free capacity to waiters. Pool mode picks, per slot:
//
//  1. among queued classes still below their guaranteed share, the one
//     with the lowest Priority value (ties: smallest relative usage, then
//     class order) — the weighted-fair guarantee;
//  2. otherwise the queued class with the lowest Priority value — strict
//     priority for surplus, so batch only advances when interactive has
//     no demand.
//
// Per-class mode admits each class's FCFS queue under its own limit.
func (p *Policy[W]) pump() {
	if p.perClass {
		for _, c := range p.classes {
			for len(c.queue) > 0 && float64(c.active) < c.limit {
				p.admitHead(c)
			}
		}
		return
	}
	for float64(p.active) < p.pool {
		var pick *class[W]
		pickDeficit := false
		for _, c := range p.classes {
			if len(c.queue) == 0 {
				continue
			}
			deficit := float64(c.active) < p.share(c)
			switch {
			case pick == nil:
				pick, pickDeficit = c, deficit
			case deficit && !pickDeficit:
				pick, pickDeficit = c, true
			case deficit == pickDeficit && c.spec.Priority < pick.spec.Priority:
				pick = c
			case deficit == pickDeficit && c.spec.Priority == pick.spec.Priority &&
				usage(c.active, p.share(c)) < usage(pick.active, p.share(pick)):
				pick = c
			}
		}
		if pick == nil {
			return
		}
		p.admitHead(pick)
	}
}

// usage is a class's relative consumption of its share, for tie-breaking.
func usage(active int, share float64) float64 {
	if share <= 0 {
		return math.Inf(1)
	}
	return float64(active) / share
}

func (p *Policy[W]) admitHead(c *class[W]) {
	w := c.queue[0]
	var zero W
	c.queue[0] = zero
	c.queue = c.queue[1:]
	c.active++
	p.active++
	c.admitted++
	p.admit(w)
}

// SetPoolLimit installs a new shared limit (pool mode); raising it admits
// waiters in pump order.
func (p *Policy[W]) SetPoolLimit(limit float64) {
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	p.pool = limit
	p.pump()
}

// SetClassLimit installs class ci's own limit (per-class mode).
func (p *Policy[W]) SetClassLimit(ci int, limit float64) {
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	p.classes[ci].limit = limit
	p.pump()
}

// SetClassWeight changes class ci's weight (pool mode: its guaranteed
// share becomes pool·w/Σw at once). Raising a weight can admit waiters
// immediately; lowering one never revokes held slots — the class just
// stops admitting until it drains below its new share. Weights must be
// positive and finite.
func (p *Policy[W]) SetClassWeight(ci int, w float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("gate: class weight must be positive and finite, got %v", w))
	}
	c := p.classes[ci]
	p.sumW += w - c.spec.Weight
	c.spec.Weight = w
	p.pump()
}

// SetPerClass switches between pool mode (false) and per-class mode
// (true). Class limits are NOT recomputed here: they keep whatever
// SetClassLimit installed last (NewPolicy seeds them to the
// construction-time shares). Switching re-runs admission either way.
func (p *Policy[W]) SetPerClass(on bool) {
	p.perClass = on
	p.pump()
}

// PoolLimit returns the shared pool limit.
func (p *Policy[W]) PoolLimit() float64 { return p.pool }

// Active returns the total number of held slots.
func (p *Policy[W]) Active() int { return p.active }

// Queued returns the total number of queued waiters.
func (p *Policy[W]) Queued() int {
	n := 0
	for _, c := range p.classes {
		n += len(c.queue)
	}
	return n
}
