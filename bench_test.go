package loadctl

// Benchmark harness: one benchmark per table/figure of Heiss & Wagner
// (VLDB 1991). Each BenchmarkFig*/BenchmarkSec*/BenchmarkTable*/
// BenchmarkAblation* regenerates the corresponding experiment at reduced
// fidelity and reports its headline metrics through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's result shapes end to end. The shape_ok metric is
// reported, not asserted: at bench scale the two long-horizon tracking
// experiments (sinusoid, baselines) can be marginal because the controller
// warm-up eats a larger fraction of the shortened run; the authoritative
// verdicts are the full-fidelity ones in EXPERIMENTS.md
// (`go run ./cmd/experiments -out results`, 19/19 SHAPE-OK).
//
// Micro-benchmarks for the hot paths (controller updates, RLS, gate
// operations, certification, the event kernel) follow at the bottom.

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/db"
	"github.com/tpctl/loadctl/internal/estimate"
	"github.com/tpctl/loadctl/internal/experiments"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/sim"

	cc "github.com/tpctl/loadctl/internal/cc"
	tpsim "github.com/tpctl/loadctl/internal/tpsim"
)

// benchScale keeps each experiment benchmark in the seconds range.
const benchScale = 0.15

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Outcome
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Options{Seed: 1 + int64(i), Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		last = out
	}
	for k, v := range last.Metrics {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			b.ReportMetric(v, k)
		}
	}
	if last.Pass {
		b.ReportMetric(1, "shape_ok")
	} else {
		b.ReportMetric(0, "shape_ok")
	}
}

// BenchmarkFig01_ThroughputFunction regenerates figure 1 (the thrashing
// curve: underload, saturation, overload).
func BenchmarkFig01_ThroughputFunction(b *testing.B) { runExperiment(b, "fig01") }

// BenchmarkFig02_DynamicSurface regenerates figure 2 (the wandering ridge
// of P(n,t) under workload drift).
func BenchmarkFig02_DynamicSurface(b *testing.B) { runExperiment(b, "fig02") }

// BenchmarkFig03_ISTrajectory regenerates figure 3 (IS zig-zag).
func BenchmarkFig03_ISTrajectory(b *testing.B) { runExperiment(b, "fig03") }

// BenchmarkFig06_EstimatorMemory regenerates figure 6 (rectangular window
// versus exponentially faded RLS memory).
func BenchmarkFig06_EstimatorMemory(b *testing.B) { runExperiment(b, "fig06") }

// BenchmarkFig07_FlatHump regenerates the figure 7 pathology (broad flat
// optimum).
func BenchmarkFig07_FlatHump(b *testing.B) { runExperiment(b, "fig07") }

// BenchmarkFig08_AbruptShape regenerates the figure 8 pathology (bound
// stranded by an abrupt shape change).
func BenchmarkFig08_AbruptShape(b *testing.B) { runExperiment(b, "fig08") }

// BenchmarkFig12_StationaryControl regenerates figure 12 (throughput with
// vs without control — the headline result).
func BenchmarkFig12_StationaryControl(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13_ISJump regenerates figure 13 (IS trajectory when the
// optimum's position jumps).
func BenchmarkFig13_ISJump(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14_PAJump regenerates figure 14 (PA trajectory on the same
// jump).
func BenchmarkFig14_PAJump(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkSec6_Indicators regenerates the §6 performance-indicator
// comparison (throughput has the most distinct extremum).
func BenchmarkSec6_Indicators(b *testing.B) { runExperiment(b, "sec6") }

// BenchmarkSec9_Sinusoid regenerates the §9 gradual-change result.
func BenchmarkSec9_Sinusoid(b *testing.B) { runExperiment(b, "sinusoid") }

// BenchmarkSec9_JumpComparison regenerates the §9/§10 IS-vs-PA comparison.
func BenchmarkSec9_JumpComparison(b *testing.B) { runExperiment(b, "jumpcmp") }

// BenchmarkTable_Baselines regenerates the baseline-controller table (§1
// alternatives 1-4 vs IS and PA).
func BenchmarkTable_Baselines(b *testing.B) { runExperiment(b, "baselines") }

// BenchmarkAblation_Recovery regenerates the §5.2 recovery-policy ablation.
func BenchmarkAblation_Recovery(b *testing.B) { runExperiment(b, "recovery") }

// BenchmarkAblation_Displacement regenerates the §4.3 displacement
// ablation.
func BenchmarkAblation_Displacement(b *testing.B) { runExperiment(b, "displacement") }

// BenchmarkAblation_Interval regenerates the §5 measurement-interval
// ablation.
func BenchmarkAblation_Interval(b *testing.B) { runExperiment(b, "interval") }

// BenchmarkAblation_2PL regenerates the blocking-class (strict 2PL)
// thrashing ablation.
func BenchmarkAblation_2PL(b *testing.B) { runExperiment(b, "twopl") }

// BenchmarkExtension_Analytic regenerates the analytic-model overlay
// (simulator cross-validation).
func BenchmarkExtension_Analytic(b *testing.B) { runExperiment(b, "analytic") }

// BenchmarkExtension_Protocols regenerates the cross-protocol control
// comparison (OCC, TSO, strict 2PL, wait-die).
func BenchmarkExtension_Protocols(b *testing.B) { runExperiment(b, "protocols") }

// --- micro-benchmarks ------------------------------------------------------

// BenchmarkMicro_PAUpdate measures one PA controller update (RLS absorb +
// vertex + dither).
func BenchmarkMicro_PAUpdate(b *testing.B) {
	pa := NewPA(DefaultPAConfig())
	g := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 200 + 50*g.NormFloat64()
		pa.Update(Sample{Time: float64(i), Load: n, Perf: 100 - 0.002*(n-250)*(n-250)})
	}
}

// BenchmarkMicro_ISUpdate measures one IS controller update.
func BenchmarkMicro_ISUpdate(b *testing.B) {
	is := NewIS(DefaultISConfig())
	g := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 200 + 50*g.NormFloat64()
		is.Update(Sample{Time: float64(i), Load: n, Perf: 100 - 0.002*(n-250)*(n-250)})
	}
}

// BenchmarkMicro_RLSUpdate measures one order-3 recursive least squares
// update with forgetting.
func BenchmarkMicro_RLSUpdate(b *testing.B) {
	r := estimate.NewRLS(3, 0.95, 1e6)
	g := sim.NewRNG(1)
	x := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := g.Float64()
		x[0], x[1], x[2] = 1, u, u*u
		r.Update(x, 1+2*u-3*u*u)
	}
}

// BenchmarkMicro_AdaptiveGate measures one uncontended unit of work
// through the public live gate: Acquire, Observe, Release. CI pins it at
// 0 allocs/op.
func BenchmarkMicro_AdaptiveGate(b *testing.B) {
	g := NewAdaptiveGate(AdaptiveGateConfig{Controller: NoControl(), Interval: time.Hour})
	defer g.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Acquire(ctx); err != nil {
			b.Fatal(err)
		}
		g.Observe(true)
		g.Release()
	}
}

// BenchmarkMicro_SimGate measures an admit/depart pair on the simulator
// gate.
func BenchmarkMicro_SimGate(b *testing.B) {
	g := gate.New(math.Inf(1), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Arrive(func() {})
		g.Depart()
	}
}

// BenchmarkMicro_Certification measures a full OCC transaction round
// (begin, 8 accesses, certify, commit).
func BenchmarkMicro_Certification(b *testing.B) {
	proto := cc.NewCertification(db.New(8000))
	g := sim.NewRNG(1)
	items := make([]int, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := cc.TxnID(i)
		proto.Begin(id, float64(i))
		g.SampleDistinct(items, 8000)
		for j, it := range items {
			proto.Access(id, it, j%2 == 0)
		}
		if proto.Certify(id) {
			proto.Commit(id, float64(i))
		} else {
			proto.Abort(id)
		}
	}
}

// BenchmarkMicro_TwoPL measures a full strict-2PL transaction round under
// light contention.
func BenchmarkMicro_TwoPL(b *testing.B) {
	proto := cc.NewTwoPL()
	g := sim.NewRNG(1)
	items := make([]int, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := cc.TxnID(i)
		proto.Begin(id, float64(i))
		g.SampleDistinct(items, 8000)
		aborted := false
		for j, it := range items {
			if proto.Access(id, it, j%2 == 0) == cc.AbortSelf {
				proto.Abort(id)
				aborted = true
				break
			}
		}
		if !aborted {
			proto.Commit(id, float64(i))
		}
	}
}

// BenchmarkMicro_EventKernel measures schedule+fire of one event through
// the calendar heap at a realistic pending-population.
func BenchmarkMicro_EventKernel(b *testing.B) {
	s := sim.New()
	g := sim.NewRNG(1)
	// Steady population of ~1000 pending events.
	var tick func()
	fired := 0
	tick = func() {
		fired++
		s.Schedule(g.Exp(1.0), "tick", tick)
	}
	for i := 0; i < 1000; i++ {
		s.Schedule(g.Exp(1.0), "tick", tick)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMicro_SimulatedSecond measures how fast the full composed
// transaction-processing model simulates one second of virtual time at
// N=400 terminals.
func BenchmarkMicro_SimulatedSecond(b *testing.B) {
	cfg := tpsim.DefaultConfig()
	cfg.Terminals = 400
	cfg.Duration = float64(b.N)
	cfg.WarmUp = 0
	cfg.MeasureEvery = 5
	b.ResetTimer()
	tpsim.New(cfg).Run()
}
