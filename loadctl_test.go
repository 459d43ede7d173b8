package loadctl

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFacadeConstructors(t *testing.T) {
	if c := NewIS(DefaultISConfig()); c.Name() != "incremental-steps" {
		t.Fatal("IS constructor broken")
	}
	if c := NewPA(DefaultPAConfig()); c.Name() != "parabola-approximation" {
		t.Fatal("PA constructor broken")
	}
	if c := NewStatic(100); c.Bound() != 100 {
		t.Fatal("Static constructor broken")
	}
	if !math.IsInf(NoControl().Bound(), 1) {
		t.Fatal("NoControl must be unbounded")
	}
	tay := NewTayRule(8000, func(float64) float64 { return 8 }, DefaultBounds())
	if math.Abs(tay.Bound()-187.5) > 1e-9 {
		t.Fatalf("Tay bound = %v", tay.Bound())
	}
	if NewIyerRule(100, DefaultBounds()).Bound() != 100 {
		t.Fatal("Iyer constructor broken")
	}
}

func TestFacadeControllerInterface(t *testing.T) {
	// All exported controllers satisfy the Controller interface.
	for _, c := range []Controller{
		NewIS(DefaultISConfig()),
		NewPA(DefaultPAConfig()),
		NewStatic(10),
		NewTayRule(1000, func(float64) float64 { return 4 }, DefaultBounds()),
		NewIyerRule(50, DefaultBounds()),
	} {
		b := c.Update(Sample{Time: 1, Load: 10, Perf: 5})
		if math.IsNaN(b) || b < 0 {
			t.Fatalf("%s emitted bad bound %v", c.Name(), b)
		}
	}
}

func TestAdaptiveGateRequiresController(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptiveGate(AdaptiveGateConfig{})
}

func TestAdaptiveGateBasicFlow(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(2),
		Interval:   5 * time.Millisecond,
	})
	defer g.Close()
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if g.Active() != 2 {
		t.Fatalf("active = %d", g.Active())
	}
	if g.TryAcquire() {
		t.Fatal("third acquire should fail at limit 2")
	}
	g.Observe(true)
	g.Release()
	g.Release()
}

func TestAdaptiveGateAdaptsLimit(t *testing.T) {
	// A synthetic workload whose per-attempt success probability degrades
	// linearly with concurrency (a smooth conflict model: p = 1 − n/16),
	// giving a successes-per-second curve that peaks around n = 8. The PA
	// controller must keep the limit well below the 32 offered workers.
	paCfg := DefaultPAConfig()
	paCfg.Bounds = Bounds{Lo: 2, Hi: 64}
	paCfg.Initial = 12
	paCfg.Scale = 16
	paCfg.Dither = 2
	paCfg.MaxStep = 6
	paCfg.RecoveryStep = 3
	paCfg.MinObs = 4
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewPA(paCfg),
		Interval:   25 * time.Millisecond,
	})
	defer g.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var inside atomic.Int32
	var seed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if err := g.Acquire(ctx); err != nil {
					return
				}
				n := inside.Add(1)
				time.Sleep(time.Millisecond)
				// success probability 1 - n/16, sampled with a cheap
				// deterministic hash
				r := seed.Add(0x9e3779b97f4a7c15)
				r ^= r >> 33
				u := float64(r%1000) / 1000
				g.Observe(u < 1-float64(n)/16)
				inside.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if lim := g.Limit(); lim > 20 {
		t.Fatalf("limit %v did not adapt toward the productive region (~8)", lim)
	}
}

func TestAdaptiveGateContextCancel(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(0), // nothing ever admitted
		Interval:   time.Hour,    // loop effectively idle
	})
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); err == nil {
		t.Fatal("expected context error at zero limit")
	}
}

func TestAdaptiveGateCloseIdempotentUse(t *testing.T) {
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: NewStatic(4),
		Interval:   time.Millisecond,
	})
	time.Sleep(10 * time.Millisecond)
	g.Close()
	// Gate remains usable after Close with its last limit.
	if !g.TryAcquire() {
		t.Fatal("gate unusable after Close")
	}
	g.Release()
}

func TestAdaptiveGateThroughputSignal(t *testing.T) {
	// With a deterministic fake clock the sample the controller receives
	// must reflect the observed completions.
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	rec := &recordingController{bound: 8}
	g := NewAdaptiveGate(AdaptiveGateConfig{
		Controller: rec,
		Interval:   50 * time.Millisecond,
		Now:        clock,
	})
	defer g.Close()
	for i := 0; i < 10; i++ {
		g.Observe(true)
	}
	g.Observe(false)
	mu.Lock()
	now = now.Add(50 * time.Millisecond)
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		rec.mu.Lock()
		n := len(rec.samples)
		rec.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never received a sample")
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	s := rec.samples[0]
	rec.mu.Unlock()
	if s.Completions != 10 {
		t.Fatalf("completions = %d, want 10", s.Completions)
	}
	if math.Abs(s.ConflictRate-0.1) > 1e-9 {
		t.Fatalf("conflict rate = %v, want 0.1", s.ConflictRate)
	}
}

type recordingController struct {
	mu      sync.Mutex
	bound   float64
	samples []Sample
}

func (r *recordingController) Update(s Sample) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
	return r.bound
}
func (r *recordingController) Bound() float64 { return r.bound }
func (r *recordingController) Name() string   { return "recording" }

// An interval in which every attempt failed hands the controller the
// documented aborts-per-attempt fallback of exactly 1, not the raw abort
// count, and the idle intervals after it hand it 0. Checking every sample
// keeps the test exact even if a tick splits the failures.
func TestAdaptiveGateConflictRateAllFailed(t *testing.T) {
	rec := &recordingController{bound: 8}
	g := NewAdaptiveGate(AdaptiveGateConfig{Controller: rec, Interval: 2 * time.Millisecond})
	defer g.Close()
	for i := 0; i < 5; i++ {
		g.Observe(false)
	}
	failed := -1
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		samples := append([]Sample(nil), rec.samples...)
		rec.mu.Unlock()
		for i, s := range samples {
			if s.ConflictRate != 0 && s.ConflictRate != 1 {
				t.Fatalf("interval %d: conflict rate = %v with no successes, want 0 or 1", i, s.ConflictRate)
			}
			if s.ConflictRate == 1 {
				failed = i
			}
		}
		if failed >= 0 && len(samples) > failed+2 {
			if idle := samples[len(samples)-1]; idle.ConflictRate != 0 || idle.Completions != 0 {
				t.Fatalf("idle interval: %+v, want zero conflict rate and completions", idle)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no failing interval followed by idle ones in %d samples", len(samples))
		}
		time.Sleep(time.Millisecond)
	}
}

// The public gate under concurrent use while a 1 ms loop swings the limit
// between 0 and 3: at quiescence every arrival is accounted for and no
// slot or waiter leaks. Run with -race.
func TestAdaptiveGateRaceIdentity(t *testing.T) {
	osc := &oscillatingController{}
	g := NewAdaptiveGate(AdaptiveGateConfig{Controller: osc, Interval: time.Millisecond})
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%4 == 0 {
					if g.TryAcquire() {
						g.Observe(true)
						g.Release()
					}
					continue
				}
				d := time.Duration(w+i) * time.Microsecond % (200 * time.Microsecond)
				ctx, cancel := context.WithTimeout(context.Background(), d)
				err := g.Acquire(ctx)
				cancel()
				if err == nil {
					g.Observe(i%3 != 0)
					g.Release()
				}
			}
		}()
	}
	// Let the loop swing the limit through several full cycles under load.
	deadline := time.Now().Add(10 * time.Second)
	for osc.updates.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	g.Close()

	if n := osc.updates.Load(); n < 20 {
		t.Fatalf("controller updated %d times in 10s, want 20", n)
	}
	if a, q := g.Active(), g.Queued(); a != 0 || q != 0 {
		t.Fatalf("leaked state: active=%d queued=%d", a, q)
	}
	st := g.Stats()
	if st.Arrivals != st.Admitted+st.Rejected+st.Timeouts {
		t.Fatalf("identity broken: %+v", st)
	}
}

// oscillatingController cycles its bound through 0, 1, 2, 3.
type oscillatingController struct{ updates atomic.Int64 }

func (o *oscillatingController) Update(Sample) float64 {
	return float64(o.updates.Add(1) % 4)
}
func (o *oscillatingController) Bound() float64 { return 2 }
func (o *oscillatingController) Name() string   { return "oscillating" }
