package tpsim

import (
	"math"
	"reflect"
	"testing"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/workload"
)

// shortConfig returns a fast config for integration tests.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.Terminals = 150
	cfg.Duration = 60
	cfg.WarmUp = 15
	cfg.MeasureEvery = 2
	return cfg
}

func TestRunProducesCommits(t *testing.T) {
	res := New(shortConfig()).Run()
	if res.Commits == 0 {
		t.Fatal("no commits in a healthy run")
	}
	if res.MeanThroughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if res.MeanResp() <= 0 {
		t.Fatal("non-positive response time")
	}
}

// Equal seeds give identical runs under every protocol. The contended
// database makes 2PL block and wake transactions, whose resume order must
// not follow lock-table map order.
func TestDeterminism(t *testing.T) {
	for _, proto := range []ProtocolKind{OCC, TwoPL, WaitDie, TSO} {
		cfg := shortConfig()
		cfg.Protocol = proto
		cfg.DBSize = 600
		cfg.Duration, cfg.WarmUp = 30, 10
		a, b := New(cfg).Run(), New(cfg).Run()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: same seed diverged: %d/%d vs %d/%d commits/aborts",
				proto, a.Commits, a.Aborts, b.Commits, b.Aborts)
		}
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := shortConfig()
	a := New(cfg).Run()
	cfg.Seed = 999
	b := New(cfg).Run()
	if a.Commits == b.Commits && a.Aborts == b.Aborts &&
		a.RespStats.Mean() == b.RespStats.Mean() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestSeriesLengths(t *testing.T) {
	cfg := shortConfig()
	res := New(cfg).Run()
	want := int(cfg.Duration / cfg.MeasureEvery)
	if res.Throughput.Len() != want {
		t.Fatalf("series length %d, want %d", res.Throughput.Len(), want)
	}
	for _, s := range []int{res.Load.Len(), res.Bound.Len(), res.Resp.Len(),
		res.ConflictRate.Len(), res.Util.Len(), res.Goodput.Len(), res.GateQueue.Len()} {
		if s != want {
			t.Fatalf("series lengths inconsistent: %d vs %d", s, want)
		}
	}
}

func TestGateLimitRespected(t *testing.T) {
	cfg := shortConfig()
	cfg.Terminals = 300
	cfg.Controller = core.NewStatic(40)
	sys := New(cfg)
	res := sys.Run()
	// The time-averaged active load can never exceed the static bound.
	for _, p := range res.Load.Points {
		if p.V > 40+1e-9 {
			t.Fatalf("active load %v exceeded static bound 40 at t=%v", p.V, p.T)
		}
	}
	if sys.Gate().Active() > 40 {
		t.Fatalf("gate active %d exceeds bound", sys.Gate().Active())
	}
}

func TestControlledBeatsUncontrolledUnderOverload(t *testing.T) {
	// The headline claim (figure 12): at heavy offered load, admission
	// control at the optimum beats the uncontrolled system.
	over := shortConfig()
	over.Terminals = 900
	over.Duration = 120
	over.WarmUp = 30
	uncontrolled := New(over).Run()

	ctl := over
	ctl.Controller = core.NewStatic(420) // near the calibrated optimum
	controlled := New(ctl).Run()

	if controlled.MeanThroughput() <= uncontrolled.MeanThroughput()*1.15 {
		t.Fatalf("control %v should beat no-control %v by >15%%",
			controlled.MeanThroughput(), uncontrolled.MeanThroughput())
	}
}

func TestThroughputUnimodalShape(t *testing.T) {
	// Three probes along the load axis must show rise then fall (figure 1).
	run := func(terminals int) float64 {
		cfg := shortConfig()
		cfg.Terminals = terminals
		cfg.Duration = 120
		cfg.WarmUp = 30
		return New(cfg).Run().MeanThroughput()
	}
	low, mid, high := run(100), run(500), run(900)
	if !(mid > low) {
		t.Fatalf("underload region not rising: T(100)=%v T(500)=%v", low, mid)
	}
	if !(mid > high*1.2) {
		t.Fatalf("no thrashing: T(500)=%v T(900)=%v", mid, high)
	}
}

func TestAbortsIncreaseWithLoad(t *testing.T) {
	run := func(terminals int) float64 {
		cfg := shortConfig()
		cfg.Terminals = terminals
		return New(cfg).Run().AbortRatio()
	}
	if lo, hi := run(60), run(500); lo >= hi {
		t.Fatalf("abort ratio should grow with load: %v vs %v", lo, hi)
	}
}

func TestQueryOnlyWorkloadNeverConflicts(t *testing.T) {
	cfg := shortConfig()
	cfg.Mix.QueryFrac = workload.Constant{V: 1.0} // all read-only
	res := New(cfg).Run()
	if res.Aborts != 0 {
		t.Fatalf("pure-query workload aborted %d times", res.Aborts)
	}
	if res.CCStats.Conflicts != 0 {
		t.Fatalf("pure-query workload conflicted %d times", res.CCStats.Conflicts)
	}
}

func TestTwoPLRunsAndThrashes(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = TwoPL
	cfg.Terminals = 300
	cfg.DBSize = 600 // tighten contention so blocking bites
	cfg.Duration = 90
	cfg.WarmUp = 20
	res := New(cfg).Run()
	if res.Commits == 0 {
		t.Fatal("2PL run produced no commits")
	}
	if res.CCStats.Conflicts == 0 {
		t.Fatal("contended 2PL run shows no lock waits")
	}
	if res.CCStats.Deadlocks == 0 {
		t.Fatal("contended 2PL run shows no deadlocks (suspicious)")
	}
}

func TestControllerReceivesSamplesAndActs(t *testing.T) {
	cfg := shortConfig()
	cfg.Controller = core.NewPA(core.DefaultPAConfig())
	res := New(cfg).Run()
	// The bound trajectory must move (PA dithers by design).
	first := res.Bound.Points[0].V
	moved := false
	for _, p := range res.Bound.Points {
		if p.V != first {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("controller never moved the bound")
	}
}

func TestDisplacementEnforcesDrop(t *testing.T) {
	// Drop the bound sharply mid-run; with displacement the active count
	// must follow immediately (within the same measurement interval).
	cfg := shortConfig()
	cfg.Terminals = 300
	drop := &scheduleController{at: 30, before: 200, after: 20}
	cfg.Controller = drop
	cfg.Displacement = true
	res := New(cfg).Run()
	if res.Displacements() == 0 {
		t.Fatal("no displacements despite bound drop")
	}
	// After the drop the active load must be at/below 20.
	for _, p := range res.Load.Points {
		if p.T > 35 && p.V > 21 {
			t.Fatalf("load %v at t=%v despite displacement to 20", p.V, p.T)
		}
	}
}

func TestNoDisplacementDrainsGradually(t *testing.T) {
	cfg := shortConfig()
	cfg.Terminals = 300
	cfg.Controller = &scheduleController{at: 30, before: 200, after: 20}
	cfg.Displacement = false
	res := New(cfg).Run()
	if res.Displacements() != 0 {
		t.Fatal("displacement occurred while disabled")
	}
	// Immediately after the drop the load is still near 200 (drains by
	// departures only).
	for _, p := range res.Load.Points {
		if p.T > 30 && p.T <= 32 && p.V < 50 {
			t.Fatalf("load fell too fast (%v at t=%v) without displacement", p.V, p.T)
		}
	}
}

// scheduleController is a test controller: a step function of time.
type scheduleController struct {
	at, before, after float64
}

func (c *scheduleController) Update(s core.Sample) float64 { return c.boundAt(s.Time) }
func (c *scheduleController) Bound() float64               { return c.before }
func (c *scheduleController) Name() string                 { return "schedule" }
func (c *scheduleController) boundAt(t float64) float64 {
	if t >= c.at {
		return c.after
	}
	return c.before
}

func TestWorkloadJumpChangesBehaviour(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 120
	cfg.WarmUp = 10
	cfg.Terminals = 300
	cfg.Mix.QueryFrac = workload.Jump{At: 60, Before: 1.0, After: 0.0}
	res := New(cfg).Run()
	// Conflict rate must be zero before the jump and positive after.
	for _, p := range res.ConflictRate.Points {
		if p.T <= 60 && p.V != 0 {
			t.Fatalf("conflicts before the jump at t=%v", p.T)
		}
	}
	after := 0.0
	for _, p := range res.ConflictRate.Points {
		if p.T > 70 {
			after += p.V
		}
	}
	if after == 0 {
		t.Fatal("no conflicts after switching to all-updaters")
	}
}

func TestRestartDelayReducesWaste(t *testing.T) {
	// With a restart delay, aborted transactions back off, so wasted CPU
	// shrinks relative to immediate rerun under identical contention.
	base := shortConfig()
	base.Terminals = 500
	base.Duration = 90
	base.WarmUp = 20
	immediate := New(base).Run()
	delayed := base
	delayed.RestartDelay = sim.Constant{V: 0.5}
	withDelay := New(delayed).Run()
	if withDelay.WastedFraction() >= immediate.WastedFraction() {
		t.Fatalf("restart delay did not reduce waste: %v vs %v",
			withDelay.WastedFraction(), immediate.WastedFraction())
	}
}

func TestHotSpotIncreasesConflicts(t *testing.T) {
	base := shortConfig()
	base.Terminals = 250
	uniform := New(base).Run()
	hot := base
	hot.HotSpot = &struct{ Frac, HotFrac float64 }{Frac: 0.8, HotFrac: 0.1}
	skewed := New(hot).Run()
	if skewed.AbortRatio() <= uniform.AbortRatio() {
		t.Fatalf("hot spot did not increase aborts: %v vs %v",
			skewed.AbortRatio(), uniform.AbortRatio())
	}
}

func TestIndicators(t *testing.T) {
	for _, ind := range []Indicator{IndicatorThroughput, IndicatorInvResponse,
		IndicatorGoodput, IndicatorUtilization} {
		cfg := shortConfig()
		cfg.PerfIndicator = ind
		cfg.Controller = core.NewPA(core.DefaultPAConfig())
		res := New(cfg).Run()
		if res.Commits == 0 {
			t.Fatalf("indicator %v: no commits", ind)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Terminals = 0 },
		func(c *Config) { c.CPUs = 0 },
		func(c *Config) { c.DBSize = 0 },
		func(c *Config) { c.MeasureEvery = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.WarmUp = 999999 },
		func(c *Config) { c.Think = nil },
		func(c *Config) { c.Mix.K = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestAttemptAccounting(t *testing.T) {
	cfg := shortConfig()
	cfg.Terminals = 400
	res := New(cfg).Run()
	// attempts per commit must be >= 1 and consistent with the abort ratio:
	// mean attempts ≈ 1 + aborts/commits (immediate-restart model).
	if res.AttemptsStats.Mean() < 1 {
		t.Fatalf("attempts/commit %v < 1", res.AttemptsStats.Mean())
	}
	approx := 1 + res.AbortRatio()
	if math.Abs(res.AttemptsStats.Mean()-approx) > 0.3*approx {
		t.Fatalf("attempts mean %v inconsistent with 1+abort ratio %v",
			res.AttemptsStats.Mean(), approx)
	}
}

func TestConservationNoLeaks(t *testing.T) {
	cfg := shortConfig()
	sys := New(cfg)
	sys.Run()
	// At the end of the horizon every transaction is somewhere legal:
	// active + queued + thinking = terminals. Active set must match the
	// protocol's live count (OCC has no blocked transactions).
	active := sys.Gate().Active()
	queued := sys.Gate().Queued()
	if active+queued > cfg.Terminals {
		t.Fatalf("more transactions in flight (%d) than terminals (%d)",
			active+queued, cfg.Terminals)
	}
}

func TestProcessorSharingVariant(t *testing.T) {
	cfg := shortConfig()
	cfg.CPUSharing = true
	res := New(cfg).Run()
	if res.Commits == 0 {
		t.Fatal("PS variant produced no commits")
	}
	// Both disciplines saturate at the same capacity; throughputs must be
	// in the same ballpark (within 30%).
	fcfs := New(shortConfig()).Run()
	ratio := res.MeanThroughput() / fcfs.MeanThroughput()
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("PS/FCFS throughput ratio %v suspicious", ratio)
	}
}

func TestAutoIntervalAdapts(t *testing.T) {
	cfg := shortConfig()
	cfg.AutoInterval = true
	cfg.MeasureEvery = 2
	cfg.MinInterval = 1
	cfg.MaxInterval = 10
	cfg.IntervalRelErr = 0.1
	cfg.Controller = core.NewPA(core.DefaultPAConfig())
	res := New(cfg).Run()
	if res.Throughput.Len() < 3 {
		t.Fatal("too few measurement intervals")
	}
	// The interval lengths must respect the clamp and eventually differ
	// from the seed interval (the outer loop acted).
	var gaps []float64
	pts := res.Throughput.Points
	for i := 1; i < len(pts); i++ {
		gaps = append(gaps, pts[i].T-pts[i-1].T)
	}
	adapted := false
	for _, g := range gaps {
		if g < 1-1e-9 || g > 10+1e-9 {
			t.Fatalf("interval %v escaped clamp [1,10]", g)
		}
		if math.Abs(g-2) > 0.5 {
			adapted = true
		}
	}
	if !adapted {
		t.Fatal("auto interval never adjusted away from the seed value")
	}
}

func TestAutoIntervalSpansEnoughDepartures(t *testing.T) {
	// §5 rule: each auto-sized interval should span hundreds of departures
	// (within the clamp). With ~100-200 tx/s and a 10% target the needed
	// count is ~385, so intervals should sit near 385/T.
	cfg := shortConfig()
	cfg.Terminals = 400
	cfg.AutoInterval = true
	cfg.MeasureEvery = 1
	cfg.MinInterval = 0.5
	cfg.MaxInterval = 30
	res := New(cfg).Run()
	pts := res.Throughput.Points
	// Skip warm-up; check a mid-run interval.
	for i := len(pts) / 2; i < len(pts)-1; i++ {
		gap := pts[i+1].T - pts[i].T
		departures := pts[i+1].V * gap
		if departures > 30 && departures < 2000 {
			return // plausible "hundreds" once throughput stabilized
		}
	}
	t.Fatal("no interval spanned a plausible departure count")
}

func TestDisplacementWith2PL(t *testing.T) {
	// Displacing blocked lock-holders exercises abort-while-blocked and
	// waiter-resume paths together.
	cfg := shortConfig()
	cfg.Protocol = TwoPL
	cfg.DBSize = 300
	cfg.Terminals = 200
	cfg.Displacement = true
	cfg.Controller = &scheduleController{at: 20, before: 150, after: 15}
	cfg.Duration = 60
	res := New(cfg).Run()
	if res.Displacements() == 0 {
		t.Fatal("no displacements under 2PL")
	}
	if res.Commits == 0 {
		t.Fatal("2PL + displacement starved all commits")
	}
	for _, p := range res.Load.Points {
		if p.T > 25 && p.V > 16 {
			t.Fatalf("load %v at t=%v despite displacement to 15", p.V, p.T)
		}
	}
}

// Randomized configuration smoke test: any sane config must run to
// completion without panics and satisfy conservation invariants.
func TestRandomConfigsConserve(t *testing.T) {
	g := sim.NewRNG(2024)
	for trial := 0; trial < 12; trial++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(trial)
		cfg.Terminals = 20 + g.Intn(300)
		cfg.CPUs = 1 + g.Intn(12)
		cfg.DBSize = 100 + g.Intn(8000)
		cfg.Duration = 30
		cfg.WarmUp = 5
		cfg.MeasureEvery = 1 + g.Float64()*4
		cfg.Mix = workload.Mix{
			K:         workload.Constant{V: float64(1 + g.Intn(16))},
			QueryFrac: workload.Constant{V: g.Float64()},
			WriteFrac: workload.Constant{V: g.Float64()},
		}
		if g.Bernoulli(0.3) {
			cfg.Protocol = TwoPL
		}
		if g.Bernoulli(0.3) {
			cfg.CPUSharing = true
		}
		if g.Bernoulli(0.5) {
			cfg.Controller = core.NewPA(core.DefaultPAConfig())
			cfg.Displacement = g.Bernoulli(0.5)
		}
		if g.Bernoulli(0.3) {
			cfg.RestartDelay = sim.Exponential{Mu: 0.1}
		}
		sys := New(cfg)
		res := sys.Run()
		// Conservation: in-flight transactions never exceed terminals.
		if sys.Gate().Active()+sys.Gate().Queued() > cfg.Terminals {
			t.Fatalf("trial %d: more in flight than terminals", trial)
		}
		// CC sanity: commits recorded by protocol >= result commits
		// (result excludes warm-up).
		if res.CCStats.Commits < res.Commits {
			t.Fatalf("trial %d: protocol commits %d < result commits %d",
				trial, res.CCStats.Commits, res.Commits)
		}
		// Utilization must be a valid fraction.
		if res.CPUUtil < 0 || res.CPUUtil > 1.0001 {
			t.Fatalf("trial %d: cpu util %v", trial, res.CPUUtil)
		}
	}
}

func TestGateWaitAccounting(t *testing.T) {
	// Under a tight bound, committed transactions must show positive gate
	// wait (admission delay), and response >= gate wait.
	cfg := shortConfig()
	cfg.Terminals = 300
	cfg.Controller = core.NewStatic(30)
	res := New(cfg).Run()
	if res.GateWaitStats.Mean() <= 0 {
		t.Fatal("no admission delay despite a tight gate")
	}
	if res.RespStats.Mean() < res.GateWaitStats.Mean() {
		t.Fatal("response time below gate wait")
	}
}

func TestTSOProtocolEndToEnd(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = TSO
	cfg.Terminals = 300
	res := New(cfg).Run()
	if res.Commits == 0 {
		t.Fatal("TSO run produced no commits")
	}
	if res.CCStats.Conflicts == 0 {
		t.Fatal("contended TSO run shows no conflicts")
	}
	// TO aborts during execution, not only at commit: certify failures
	// alone cannot explain all aborts.
	if res.Aborts == 0 {
		t.Fatal("TSO should abort under contention")
	}
}

func TestWaitDieProtocolEndToEnd(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = WaitDie
	cfg.Terminals = 300
	cfg.DBSize = 600
	res := New(cfg).Run()
	if res.Commits == 0 {
		t.Fatal("wait-die run produced no commits")
	}
	if res.CCStats.Deadlocks == 0 {
		t.Fatal("wait-die never killed a younger requester under contention")
	}
}

func TestAllProtocolsThrashAndRecoverWithControl(t *testing.T) {
	// Each CC scheme must benefit from adaptive admission control under
	// overload — the paper's point that load control is protocol-agnostic.
	for _, proto := range []ProtocolKind{OCC, TwoPL, WaitDie, TSO} {
		cfg := shortConfig()
		cfg.Protocol = proto
		cfg.Terminals = 600
		cfg.DBSize = 1200
		cfg.Duration = 100
		cfg.WarmUp = 25
		uncontrolled := New(cfg).Run().MeanThroughput()
		cfg.Controller = core.NewPA(core.DefaultPAConfig())
		controlled := New(cfg).Run().MeanThroughput()
		if controlled <= uncontrolled*0.9 {
			t.Errorf("%v: control %.1f worse than none %.1f", proto, controlled, uncontrolled)
		}
	}
}

func TestRequiredDepartures(t *testing.T) {
	// Poisson-ish, 10% error, 95% confidence -> (1.96/0.1)^2 ≈ 385.
	n := requiredDepartures(1.0, 0.1, 1.96)
	if n < 380 || n > 390 {
		t.Fatalf("n = %d, want ~385", n)
	}
	// §5: "rather hundreds of departures than some tens" — 10% accuracy
	// indeed needs hundreds.
	if n < 100 {
		t.Fatal("rule of §5 violated")
	}
	if requiredDepartures(1, 0, 1.96) != math.MaxInt32 {
		t.Fatal("zero error must demand unbounded sample")
	}
	if requiredDepartures(0, 10, 1.96) < 1 {
		t.Fatal("must need at least one departure")
	}
}

func TestSuggestInterval(t *testing.T) {
	// 100 tx/s needing 400 departures -> 4 s, inside [1, 30].
	if dt := suggestInterval(100, 400, 1, 30); math.Abs(dt-4) > 1e-12 {
		t.Fatalf("dt = %v, want 4", dt)
	}
	if dt := suggestInterval(100, 10, 1, 30); dt != 1 {
		t.Fatalf("clamp to min failed: %v", dt)
	}
	if dt := suggestInterval(1, 10000, 1, 30); dt != 30 {
		t.Fatalf("clamp to max failed: %v", dt)
	}
	if dt := suggestInterval(0, 100, 1, 30); dt != 30 {
		t.Fatalf("zero throughput should give max: %v", dt)
	}
}
