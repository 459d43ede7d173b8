// Package gate implements the load-control enforcement point of §4.3: a
// 'gate' in front of the transaction processing system that admits an
// arriving transaction if and only if the actual load n is below the
// current threshold n*; otherwise the transaction waits in a FCFS queue and
// is admitted as soon as n < n* holds again. An optional displacement hook
// implements the §4.3 alternative of instantaneously enforcing a lowered
// threshold by aborting active transactions (off by default — the paper
// found pure admission control responsive enough and smoother).
//
// Two implementations share the policy: Gate is the single-threaded variant
// driven by the discrete-event simulator, and Multi (multi.go) is the
// goroutine-safe gate with dynamically adjustable limits that serves
// everything live — loadctld's per-class admission and, as a one-class
// Multi, the public loadctl.AdaptiveGate.
package gate

import (
	"fmt"
	"math"
)

// Stats aggregates gate activity.
type Stats struct {
	Arrivals  uint64
	Admitted  uint64
	Displaced uint64
	QueueMax  int
	WaitSum   float64 // simulated seconds spent queued (filled by caller's clock)
}

// waiter is one queued admission request.
type waiter struct {
	admit   func()
	arrived float64
	next    *waiter
}

// Gate is the simulator-side admission controller. It is not safe for
// concurrent use; the event loop serializes access.
type Gate struct {
	limit  float64
	active int
	qhead  *waiter
	qtail  *waiter
	qlen   int
	stats  Stats
	// displace, when non-nil and displacement is enabled, is called with
	// the number of active transactions that exceed a newly lowered limit;
	// the engine aborts victims and returns them through Reenter.
	displace func(excess int)
	now      func() float64
}

// New returns a gate with the given initial limit (use math.Inf(1) for an
// uncontrolled system). now supplies the current clock for waiting-time
// statistics; nil defaults to a zero clock.
func New(limit float64, now func() float64) *Gate {
	if now == nil {
		now = func() float64 { return 0 }
	}
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	return &Gate{limit: limit, now: now}
}

// SetDisplaceFn installs the displacement hook (§4.3 option ii). The hook
// is invoked from SetLimit when the new limit is below the active count.
func (g *Gate) SetDisplaceFn(fn func(excess int)) { g.displace = fn }

// Limit returns the current threshold n*.
func (g *Gate) Limit() float64 { return g.limit }

// Active returns the number of admitted, not-yet-departed transactions.
func (g *Gate) Active() int { return g.active }

// QueueLen returns the number of waiting transactions.
func (g *Gate) QueueLen() int { return g.qlen }

// Stats returns a snapshot of the counters.
func (g *Gate) Stats() Stats { return g.stats }

// Arrive requests admission. If n < n*, admit runs synchronously and the
// transaction counts as active; otherwise the request queues FCFS.
func (g *Gate) Arrive(admit func()) {
	g.stats.Arrivals++
	g.enqueue(admit)
	g.pump()
}

// Reenter re-queues a displaced transaction at the *head* of the queue: it
// already waited once and was admitted, so it outranks later arrivals.
func (g *Gate) Reenter(admit func()) {
	w := &waiter{admit: admit, arrived: g.now()}
	w.next = g.qhead
	g.qhead = w
	if g.qtail == nil {
		g.qtail = w
	}
	g.qlen++
	if g.qlen > g.stats.QueueMax {
		g.stats.QueueMax = g.qlen
	}
	g.pump()
}

// Depart signals that an admitted transaction finished (committed or was
// finally aborted); the freed slot admits the next waiter if any.
func (g *Gate) Depart() {
	if g.active <= 0 {
		panic("gate: Depart without matching admission")
	}
	g.active--
	g.pump()
}

// DisplacedDepart removes a victim from the active count without pumping a
// replacement (the engine re-enters it through Reenter immediately after).
func (g *Gate) DisplacedDepart() {
	if g.active <= 0 {
		panic("gate: DisplacedDepart without matching admission")
	}
	g.active--
	g.stats.Displaced++
}

// SetLimit installs a new threshold n*. A raised limit admits waiters
// immediately; a lowered one triggers the displacement hook when installed
// (otherwise the excess drains by normal departures — §4.3 option i).
func (g *Gate) SetLimit(limit float64) {
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	g.limit = limit
	if g.displace != nil {
		if excess := g.active - int(math.Floor(limit)); excess > 0 {
			g.displace(excess)
		}
	}
	g.pump()
}

func (g *Gate) enqueue(admit func()) {
	w := &waiter{admit: admit, arrived: g.now()}
	if g.qtail == nil {
		g.qhead, g.qtail = w, w
	} else {
		g.qtail.next = w
		g.qtail = w
	}
	g.qlen++
	if g.qlen > g.stats.QueueMax {
		g.stats.QueueMax = g.qlen
	}
}

// pump admits the longest prefix of the queue that fits under the limit.
func (g *Gate) pump() {
	for g.qhead != nil && float64(g.active) < g.limit {
		w := g.qhead
		g.qhead = w.next
		if g.qhead == nil {
			g.qtail = nil
		}
		g.qlen--
		g.active++
		g.stats.Admitted++
		g.stats.WaitSum += g.now() - w.arrived
		w.admit()
	}
}

// String summarizes the gate state for traces.
func (g *Gate) String() string {
	return fmt.Sprintf("gate(n*=%g, active=%d, queued=%d)", g.limit, g.active, g.qlen)
}
