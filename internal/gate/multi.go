package gate

import (
	"context"
	"sync"
)

// Multi is the live admission gate: a Policy whose waiters are
// goroutines, each parked on a pooled channel, behind one mutex. The
// admission rules — weighted pool shares, borrowing, strict-priority
// surplus, per-class mode — are Policy's; Multi adds blocking, context
// cancellation and goroutine safety.
//
// Class identity is an index returned by ClassIndex. A one-class Multi in
// pool mode is the plain §4.3 gate — FCFS below one adjustable limit — and
// is what loadctl.AdaptiveGate runs on.
type Multi struct {
	mu sync.Mutex
	p  *Policy[chan struct{}]
}

// ClassSpec declares one admission class.
type ClassSpec struct {
	// Name identifies the class in requests and metrics.
	Name string
	// Weight is the class's share of the pool (default 1). Guaranteed
	// share in pool mode is C·Weight/ΣWeights.
	Weight float64
	// Priority orders classes under overload: lower values shed last.
	// Classes with equal priority compete FCFS.
	Priority int
}

// waiters pools the capacity-1 channels queued acquirers park on, so the
// queue/admit cycle performs no allocation in steady state. Admission is
// a single send (wake), consumed exactly once by the owning acquirer,
// which drains or verifies the channel empty before returning it — a
// pooled channel is therefore always empty when reused.
var waiters = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// wake admits a queued acquirer. It never blocks: the channel has
// capacity 1 and each queued entry receives exactly one send over its
// queue lifetime.
func wake(ch chan struct{}) { ch <- struct{}{} }

// NewMulti returns a multi-class gate in pool mode with the given shared
// limit (math.Inf(1) for uncontrolled). Class names must be unique and
// non-empty; weights default to 1 and must not be negative. Per-class
// limits start at each class's guaranteed share, so an immediate switch
// to per-class mode is capacity-neutral.
func NewMulti(specs []ClassSpec, poolLimit float64) (*Multi, error) {
	p, err := NewPolicy(specs, poolLimit, wake)
	if err != nil {
		return nil, err
	}
	return &Multi{p: p}, nil
}

// ClassIndex resolves a class name to its index.
//
//loadctl:hotpath
func (m *Multi) ClassIndex(name string) (int, bool) {
	i, ok := m.p.byName[name]
	return i, ok
}

// ClassNames returns the class names in index order.
func (m *Multi) ClassNames() []string {
	names := make([]string, len(m.p.classes))
	for i, c := range m.p.classes {
		names[i] = c.spec.Name
	}
	return names
}

// Acquire blocks until class class gets a slot or ctx is done. Admission
// is FCFS within the class; across classes the Policy pump order applies.
//
//loadctl:hotpath
func (m *Multi) Acquire(ctx context.Context, class int) error {
	m.mu.Lock()
	if m.p.Admit(class) {
		m.mu.Unlock()
		return nil
	}
	ch := waiters.Get().(chan struct{})
	m.p.Enqueue(class, ch)
	m.mu.Unlock()

	select {
	case <-ch:
		waiters.Put(ch)
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		// Off the queue, or — admitted concurrently with cancellation —
		// the slot handed back and reclassified as a timeout, so Admitted
		// only counts admissions the caller observed.
		m.p.Withdraw(class, ch)
		m.mu.Unlock()
		// No send can follow Withdraw; drain a grant that raced the
		// cancellation so the pooled channel is empty when reused.
		select {
		case <-ch:
		default:
		}
		waiters.Put(ch)
		return ctx.Err()
	}
}

// AcquireFast is the zero-allocation, zero-context happy path: it admits
// class class immediately if admission rules allow and otherwise reports
// false WITHOUT counting anything — the caller must then fall through to
// Acquire (or TryAcquire), which performs the full arrival accounting.
// An arrival is thus counted exactly once, by whichever call disposes of
// it, and the identity Arrivals == Admitted + Rejected + Timeouts +
// Queued is untouched. The point of the split: the serving fast path can
// skip building a cancellable context (and its allocations) entirely
// whenever the gate is uncontended.
//
//loadctl:hotpath
func (m *Multi) AcquireFast(class int) bool {
	m.mu.Lock()
	ok := m.p.Admit(class)
	m.mu.Unlock()
	return ok
}

// TryAcquire admits class class without blocking. At a full pool (or a
// class over its admissible share while others queue) the arrival is shed
// immediately — the strict-priority shedding path for open-loop overload.
//
//loadctl:hotpath
func (m *Multi) TryAcquire(class int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.p.Admit(class) {
		return true
	}
	m.p.Reject(class)
	return false
}

// Release frees a slot held by class class and re-runs admission.
//
//loadctl:hotpath
func (m *Multi) Release(class int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.Depart(class)
}

// SetPoolLimit installs a new shared limit (pool mode); raising it wakes
// queued goroutines in pump order.
func (m *Multi) SetPoolLimit(limit float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.SetPoolLimit(limit)
}

// SetClassLimit installs class class's own limit (per-class mode).
func (m *Multi) SetClassLimit(class int, limit float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.SetClassLimit(class, limit)
}

// SetClassWeight changes class class's weight live (pool mode: its
// guaranteed share becomes pool·w/Σw at once). Raising a weight can admit
// waiters immediately; lowering one never revokes held slots — the class
// just stops admitting until it drains below its new share. Weights must
// be positive and finite.
func (m *Multi) SetClassWeight(class int, w float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.SetClassWeight(class, w)
}

// ClassWeight returns class class's current weight.
func (m *Multi) ClassWeight(class int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.classes[class].spec.Weight
}

// Weights returns the current per-class weights in class-index order.
func (m *Multi) Weights() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := make([]float64, len(m.p.classes))
	for i, c := range m.p.classes {
		ws[i] = c.spec.Weight
	}
	return ws
}

// SetPerClass switches between pool mode (false) and per-class mode
// (true). Class limits are NOT recomputed here: they keep whatever
// SetClassLimit installed last (NewMulti seeds them to the
// construction-time shares), so a caller that changed the pool since
// construction should install fresh limits via SetClassLimit when
// entering per-class mode. Switching re-runs admission either way.
func (m *Multi) SetPerClass(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.p.SetPerClass(on)
}

// PerClass reports the current mode.
func (m *Multi) PerClass() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.perClass
}

// PoolLimit returns the shared pool limit.
func (m *Multi) PoolLimit() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.PoolLimit()
}

// Limit returns the effective total capacity: the pool limit in pool
// mode, Σ class limits in per-class mode.
func (m *Multi) Limit() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.p.perClass {
		return m.p.pool
	}
	sum := 0.0
	for _, c := range m.p.classes {
		sum += c.limit
	}
	return sum
}

// ClassLimit returns class class's own limit (meaningful in per-class
// mode; in pool mode it is the last installed value, seeded to the share).
func (m *Multi) ClassLimit(class int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.classes[class].limit
}

// Active returns the total number of held slots.
func (m *Multi) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.Active()
}

// Queued returns the total number of blocked acquirers.
func (m *Multi) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.p.Queued()
}

// ClassStats is one class's snapshot. The admission identity holds per
// class: Arrivals == Admitted + Rejected + Timeouts + Queued.
type ClassStats struct {
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	Priority int     `json:"priority"`
	// Share is the guaranteed pool slice (pool mode); Limit the class's
	// own bound (per-class mode).
	Share    float64 `json:"share"`
	Limit    float64 `json:"limit"`
	Active   int     `json:"active"`
	Queued   int     `json:"queued"`
	Arrivals uint64  `json:"arrivals"`
	Admitted uint64  `json:"admitted"`
	Rejected uint64  `json:"rejected"`
	Timeouts uint64  `json:"timeouts"`
	QueueMax int     `json:"queue_max"`
}

// MultiStats is a full snapshot of the gate.
type MultiStats struct {
	PerClass bool         `json:"per_class"`
	Pool     float64      `json:"pool"`
	Active   int          `json:"active"`
	Queued   int          `json:"queued"`
	Classes  []ClassStats `json:"classes"`
}

// Stats returns a consistent snapshot of all classes.
func (m *Multi) Stats() MultiStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.p
	st := MultiStats{PerClass: p.perClass, Pool: p.pool, Active: p.active}
	for _, c := range p.classes {
		st.Queued += len(c.queue)
		st.Classes = append(st.Classes, ClassStats{
			Name:     c.spec.Name,
			Weight:   c.spec.Weight,
			Priority: c.spec.Priority,
			Share:    p.share(c),
			Limit:    c.limit,
			Active:   c.active,
			Queued:   len(c.queue),
			Arrivals: c.arrivals,
			Admitted: c.admitted,
			Rejected: c.rejected,
			Timeouts: c.timeouts,
			QueueMax: c.queueMax,
		})
	}
	return st
}

// LiveStats is a live gate's admission counters summed over its classes
// (AggregateStats). Arrivals counts every admission attempt (blocking or
// not); Admitted the successful ones (only those the caller observed as
// admitted — a slot granted concurrently with context cancellation is
// handed back and counted as a timeout instead); Rejected the TryAcquire
// calls turned away (the non-blocking shed path, distinct from queued
// admits); Timeouts the Acquire calls abandoned by context cancellation;
// QueueMax the largest single-class queue seen. At quiescence the counters
// reconcile exactly: Arrivals == Admitted + Rejected + Timeouts + queued
// waiters.
type LiveStats struct {
	Arrivals uint64
	Admitted uint64
	Rejected uint64
	Timeouts uint64
	QueueMax int
}

// AggregateStats folds the per-class counters into one LiveStats total,
// so single-gate dashboards keep working against a Multi.
func (m *Multi) AggregateStats() LiveStats {
	st := m.Stats()
	var out LiveStats
	for _, c := range st.Classes {
		out.Arrivals += c.Arrivals
		out.Admitted += c.Admitted
		out.Rejected += c.Rejected
		out.Timeouts += c.Timeouts
		if c.QueueMax > out.QueueMax {
			out.QueueMax = c.QueueMax
		}
	}
	return out
}
