package loadctl

import (
	"context"
	"sync"
	"time"

	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// AdaptiveGateConfig configures a live adaptive admission gate.
type AdaptiveGateConfig struct {
	// Controller re-estimates the concurrency limit; required.
	Controller Controller
	// Interval is the measurement interval Δt (default 1s). Per §5 it
	// should span enough completions to filter noise — prefer hundreds of
	// observations per interval over tens.
	Interval time.Duration
	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// AdaptiveGate throttles a live Go workload at an adaptive concurrency
// limit: the §4.3 gate with goroutines as the paper's concurrent
// transactions. Acquire blocks while the active count is at the limit;
// Observe reports completions; a background loop periodically feeds the
// measured (load, throughput) pair to the Controller and installs the new
// limit. It is the stack loadctld runs, cut to one class: a one-class
// gate.Multi, sensed through telemetry.CloseInterval, driven by a
// ctl.Loop.
type AdaptiveGate struct {
	cfg   AdaptiveGateConfig
	gate  *gate.Multi
	loop  *ctl.Loop
	start time.Time

	mu       sync.Mutex
	acc      telemetry.Accum // totals since start
	prev     telemetry.Accum // totals at the previous interval boundary
	lastTick time.Time
}

// NewAdaptiveGate starts the measurement loop and returns the gate. Close
// must be called to stop the loop.
func NewAdaptiveGate(cfg AdaptiveGateConfig) *AdaptiveGate {
	if cfg.Controller == nil {
		panic("loadctl: AdaptiveGate needs a Controller")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m, err := gate.NewMulti([]gate.ClassSpec{{Name: "default"}}, cfg.Controller.Bound())
	if err != nil {
		panic(err)
	}
	g := &AdaptiveGate{cfg: cfg, gate: m, start: cfg.Now()}
	g.lastTick = g.start
	g.loop = ctl.Start(ctl.Config{Interval: cfg.Interval, Tick: g.tick})
	return g
}

// Acquire blocks until a slot is free or ctx is done (FCFS).
func (g *AdaptiveGate) Acquire(ctx context.Context) error {
	if err := g.gate.Acquire(ctx, 0); err != nil {
		return err
	}
	g.note(true)
	return nil
}

// TryAcquire takes a slot without blocking; it reports success.
func (g *AdaptiveGate) TryAcquire() bool {
	if !g.gate.TryAcquire(0) {
		return false
	}
	g.note(true)
	return true
}

// Release frees a slot taken by Acquire/TryAcquire.
func (g *AdaptiveGate) Release() {
	g.gate.Release(0)
	g.note(false)
}

// Observe reports the outcome of one unit of work: success feeds the
// throughput signal, failure (e.g. an OCC conflict abort) the conflict
// rate.
func (g *AdaptiveGate) Observe(success bool) {
	g.mu.Lock()
	if success {
		g.acc.Commits++
	} else {
		g.acc.Aborts++
	}
	g.mu.Unlock()
}

// Limit returns the current concurrency limit.
func (g *AdaptiveGate) Limit() float64 { return g.gate.Limit() }

// Active returns the number of held slots.
func (g *AdaptiveGate) Active() int { return g.gate.Active() }

// Queued returns the number of blocked acquirers.
func (g *AdaptiveGate) Queued() int { return g.gate.Queued() }

// GateStats is a snapshot of admission counters: total arrivals, admitted,
// non-blocking rejections (TryAcquire at a full gate), context-cancelled
// waits, and the high-water mark of the wait queue.
type GateStats = gate.LiveStats

// Stats returns a snapshot of the gate's admission counters.
func (g *AdaptiveGate) Stats() GateStats { return g.gate.AggregateStats() }

// Close stops the measurement loop. The gate itself remains usable with
// its last limit.
func (g *AdaptiveGate) Close() { g.loop.Close() }

// note stamps one admission (enter) or release into the load integrator's
// entry/exit totals. The clock is read under mu so no stamp recorded
// before a tick can postdate that tick's interval end.
func (g *AdaptiveGate) note(enter bool) {
	g.mu.Lock()
	ns := uint64(g.cfg.Now().Sub(g.start))
	if enter {
		g.acc.Entries++
		g.acc.EntryNanos += ns
	} else {
		g.acc.Exits++
		g.acc.ExitNanos += ns
	}
	g.mu.Unlock()
}

// tick closes one interval over the actually elapsed window and installs
// the controller's answer. It reads the configured clock, not the loop's,
// so AdaptiveGateConfig.Now drives the window.
func (g *AdaptiveGate) tick(time.Time) []ctl.Decision {
	g.mu.Lock()
	now := g.cfg.Now()
	cur, prev := g.acc, g.prev
	g.prev = cur
	dt := now.Sub(g.lastTick)
	g.lastTick = now
	g.mu.Unlock()
	if dt <= 0 {
		dt = g.cfg.Interval
	}
	since := now.Sub(g.start)
	_, sample := telemetry.CloseInterval(since.Seconds(), cur, prev, int64(since), int64(dt))
	limit := g.cfg.Controller.Update(sample)
	g.gate.SetPoolLimit(limit)
	return []ctl.Decision{{Scope: "pool", Controller: g.cfg.Controller.Name(), Sample: sample, Limit: limit}}
}
