package gate

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Multi is the live admission gate: per-class admission gates drawing
// from one shared capacity pool. Heiss & Wagner define load
// control over transaction *classes* — the optimal multiprogramming level
// depends on the mix competing for data — so the gate tracks, per class,
// its own active count, FCFS queue and counters, while capacity is
// allocated across classes by weighted fair shares with strict-priority
// handling of surplus and overload:
//
//   - Pool mode (the default): a single limit C is split into guaranteed
//     shares C·w_c/Σw. A class below its share admits immediately while
//     the pool has room. A class at or above its share may borrow idle
//     capacity (work-conserving), but never while any other class has
//     waiters — queued demand always beats borrowing. Freed slots go
//     first to queued classes still below their share (highest priority
//     first), then to the remaining queued classes in strict priority
//     order, so under overload the lowest-priority classes are the ones
//     that starve and shed (TryAcquire rejection or Acquire timeout)
//     while high-priority classes keep their weighted share.
//
//   - Per-class mode: every class has an independent limit and admits
//     exactly like its own one-class gate; the pool is Σ limits. This is
//     the shape used when a separate adaptive controller steers each class.
//
// Class identity is an index returned by ClassIndex. A one-class Multi in
// pool mode is the plain §4.3 gate — FCFS below one adjustable limit — and
// is what loadctl.AdaptiveGate runs on.
type Multi struct {
	mu       sync.Mutex
	classes  []*classGate
	byName   map[string]int
	perClass bool
	pool     float64 // pool-mode shared limit C
	active   int     // Σ per-class active
	sumW     float64 // Σ weights
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
// a single send (admitHeadLocked), consumed exactly once by the owning
// acquirer, which drains or verifies the channel empty before returning
// it — a pooled channel is therefore always empty when reused.
var waiters = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

type classGate struct {
	spec   ClassSpec
	limit  float64 // per-class-mode limit
	active int
	// queue of waiting goroutines in arrival order; each waits on its own
	// pooled capacity-1 channel and is admitted by a send.
	queue []chan struct{}

	arrivals uint64
	admitted uint64
	rejected uint64
	timeouts uint64
	queueMax int
}

// NewMulti returns a multi-class gate in pool mode with the given shared
// limit (math.Inf(1) for uncontrolled). Class names must be unique and
// non-empty; weights default to 1 and must not be negative. Per-class
// limits start at each class's guaranteed share, so an immediate switch
// to per-class mode is capacity-neutral.
func NewMulti(specs []ClassSpec, poolLimit float64) (*Multi, error) {
	if math.IsNaN(poolLimit) {
		return nil, fmt.Errorf("gate: pool limit must not be NaN")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gate: at least one class is required")
	}
	m := &Multi{pool: poolLimit, byName: make(map[string]int, len(specs))}
	for _, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("gate: class name must not be empty")
		}
		if _, dup := m.byName[sp.Name]; dup {
			return nil, fmt.Errorf("gate: duplicate class %q", sp.Name)
		}
		if sp.Weight < 0 || math.IsNaN(sp.Weight) {
			return nil, fmt.Errorf("gate: class %q has invalid weight %v", sp.Name, sp.Weight)
		}
		if sp.Weight == 0 {
			sp.Weight = 1
		}
		m.byName[sp.Name] = len(m.classes)
		m.classes = append(m.classes, &classGate{spec: sp})
		m.sumW += sp.Weight
	}
	for _, c := range m.classes {
		c.limit = m.shareLocked(c)
	}
	return m, nil
}

// ClassIndex resolves a class name to its index.
//
//loadctl:hotpath
func (m *Multi) ClassIndex(name string) (int, bool) {
	i, ok := m.byName[name]
	return i, ok
}

// ClassNames returns the class names in index order.
func (m *Multi) ClassNames() []string {
	names := make([]string, len(m.classes))
	for i, c := range m.classes {
		names[i] = c.spec.Name
	}
	return names
}

// shareLocked is class c's guaranteed slice of the pool. Callers hold mu.
func (m *Multi) shareLocked(c *classGate) float64 {
	if m.sumW <= 0 {
		return m.pool
	}
	return m.pool * c.spec.Weight / m.sumW
}

// admitNowLocked reports whether a fresh arrival of class ci may be
// admitted immediately. FCFS within a class: never jump over own waiters.
func (m *Multi) admitNowLocked(ci int) bool {
	c := m.classes[ci]
	if len(c.queue) > 0 {
		return false
	}
	if m.perClass {
		return float64(c.active) < c.limit
	}
	if float64(m.active) >= m.pool {
		return false
	}
	if float64(c.active) < m.shareLocked(c) {
		return true
	}
	// Borrowing beyond the share: only into genuinely idle capacity —
	// any queued demand elsewhere has first claim on the free slot.
	for _, other := range m.classes {
		if len(other.queue) > 0 {
			return false
		}
	}
	return true
}

// Acquire blocks until class class gets a slot or ctx is done. Admission
// is FCFS within the class; across classes the pump order below applies.
//
//loadctl:hotpath
func (m *Multi) Acquire(ctx context.Context, class int) error {
	m.mu.Lock()
	c := m.classes[class]
	c.arrivals++
	if m.admitNowLocked(class) {
		c.active++
		m.active++
		c.admitted++
		m.mu.Unlock()
		return nil
	}
	ch := waiters.Get().(chan struct{})
	c.queue = append(c.queue, ch) //loadctl:allocok audited: queue growth only — the backing array is retained across append cycles, so steady-state queueing does not allocate
	if len(c.queue) > c.queueMax {
		c.queueMax = len(c.queue)
	}
	m.mu.Unlock()

	select {
	case <-ch:
		waiters.Put(ch)
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		select {
		case <-ch:
			// Admitted concurrently with cancellation: hand the slot back
			// and reclassify as a timeout so Admitted only counts
			// admissions the caller observed, keeping the identity
			// Arrivals == Admitted + Rejected + Timeouts + queued.
			c.active--
			m.active--
			c.admitted--
			c.timeouts++
			m.pumpLocked()
			m.mu.Unlock()
			waiters.Put(ch)
			return ctx.Err()
		default:
		}
		for i, q := range c.queue {
			if q == ch {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.timeouts++
		m.mu.Unlock()
		// Off the queue under the lock with no pending send, so the
		// channel is empty and safe to reuse.
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
	c := m.classes[class]
	if m.admitNowLocked(class) {
		c.arrivals++
		c.active++
		m.active++
		c.admitted++
		m.mu.Unlock()
		return true
	}
	m.mu.Unlock()
	return false
}

// TryAcquire admits class class without blocking. At a full pool (or a
// class over its admissible share while others queue) the arrival is shed
// immediately — the strict-priority shedding path for open-loop overload.
//
//loadctl:hotpath
func (m *Multi) TryAcquire(class int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classes[class]
	c.arrivals++
	if m.admitNowLocked(class) {
		c.active++
		m.active++
		c.admitted++
		return true
	}
	c.rejected++
	return false
}

// Release frees a slot held by class class and re-runs admission.
//
//loadctl:hotpath
func (m *Multi) Release(class int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classes[class]
	if c.active <= 0 {
		panic(fmt.Sprintf("gate: Release of class %q without matching Acquire", c.spec.Name)) //loadctl:allocok audited: programming-error panic path, never taken in a correct server
	}
	c.active--
	m.active--
	m.pumpLocked()
}

// pumpLocked hands free capacity to waiters. Pool mode picks, per slot:
//
//  1. among queued classes still below their guaranteed share, the one
//     with the lowest Priority value (ties: smallest relative usage, then
//     class order) — the weighted-fair guarantee;
//  2. otherwise the queued class with the lowest Priority value — strict
//     priority for surplus, so batch only advances when interactive has
//     no demand.
//
// Per-class mode admits each class's FCFS queue under its own limit.
// Callers hold mu.
func (m *Multi) pumpLocked() {
	if m.perClass {
		for _, c := range m.classes {
			for len(c.queue) > 0 && float64(c.active) < c.limit {
				m.admitHeadLocked(c)
			}
		}
		return
	}
	for float64(m.active) < m.pool {
		var pick *classGate
		pickDeficit := false
		for _, c := range m.classes {
			if len(c.queue) == 0 {
				continue
			}
			deficit := float64(c.active) < m.shareLocked(c)
			switch {
			case pick == nil:
				pick, pickDeficit = c, deficit
			case deficit && !pickDeficit:
				pick, pickDeficit = c, true
			case deficit == pickDeficit && c.spec.Priority < pick.spec.Priority:
				pick = c
			case deficit == pickDeficit && c.spec.Priority == pick.spec.Priority &&
				usage(c, m.shareLocked(c)) < usage(pick, m.shareLocked(pick)):
				pick = c
			}
		}
		if pick == nil {
			return
		}
		m.admitHeadLocked(pick)
	}
}

// usage is a class's relative consumption of its share, for tie-breaking.
func usage(c *classGate, share float64) float64 {
	if share <= 0 {
		return math.Inf(1)
	}
	return float64(c.active) / share
}

func (m *Multi) admitHeadLocked(c *classGate) {
	ch := c.queue[0]
	c.queue = c.queue[1:]
	c.active++
	m.active++
	c.admitted++
	// Never blocks: the channel has capacity 1 and each queued entry
	// receives exactly one send over its queue lifetime.
	ch <- struct{}{}
}

// SetPoolLimit installs a new shared limit (pool mode); raising it wakes
// queued goroutines in pump order.
func (m *Multi) SetPoolLimit(limit float64) {
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool = limit
	m.pumpLocked()
}

// SetClassLimit installs class class's own limit (per-class mode).
func (m *Multi) SetClassLimit(class int, limit float64) {
	if math.IsNaN(limit) {
		panic("gate: limit must not be NaN")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.classes[class].limit = limit
	m.pumpLocked()
}

// SetClassWeight changes class class's weight live (pool mode: its
// guaranteed share becomes pool·w/Σw at once). Raising a weight can admit
// waiters immediately; lowering one never revokes held slots — the class
// just stops admitting until it drains below its new share. Weights must
// be positive and finite.
func (m *Multi) SetClassWeight(class int, w float64) {
	if !(w > 0) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("gate: class weight must be positive and finite, got %v", w))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classes[class]
	m.sumW += w - c.spec.Weight
	c.spec.Weight = w
	m.pumpLocked()
}

// ClassWeight returns class class's current weight.
func (m *Multi) ClassWeight(class int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classes[class].spec.Weight
}

// Weights returns the current per-class weights in class-index order.
func (m *Multi) Weights() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ws := make([]float64, len(m.classes))
	for i, c := range m.classes {
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
	m.perClass = on
	m.pumpLocked()
}

// PerClass reports the current mode.
func (m *Multi) PerClass() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perClass
}

// PoolLimit returns the shared pool limit.
func (m *Multi) PoolLimit() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pool
}

// Limit returns the effective total capacity: the pool limit in pool
// mode, Σ class limits in per-class mode.
func (m *Multi) Limit() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.perClass {
		return m.pool
	}
	sum := 0.0
	for _, c := range m.classes {
		sum += c.limit
	}
	return sum
}

// ClassLimit returns class class's own limit (meaningful in per-class
// mode; in pool mode it is the last installed value, seeded to the share).
func (m *Multi) ClassLimit(class int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classes[class].limit
}

// Active returns the total number of held slots.
func (m *Multi) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Queued returns the total number of blocked acquirers.
func (m *Multi) Queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.classes {
		n += len(c.queue)
	}
	return n
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
	st := MultiStats{PerClass: m.perClass, Pool: m.pool, Active: m.active}
	for _, c := range m.classes {
		st.Queued += len(c.queue)
		st.Classes = append(st.Classes, ClassStats{
			Name:     c.spec.Name,
			Weight:   c.spec.Weight,
			Priority: c.spec.Priority,
			Share:    m.shareLocked(c),
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
