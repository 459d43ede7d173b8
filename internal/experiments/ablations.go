package experiments

import (
	"fmt"
	"math"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/plot"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/tpsim"
	"github.com/tpctl/loadctl/internal/workload"
)

// AblationRecovery compares the three §5.2 recovery policies on the figure
// 8 stranded scenario. Criterion: the slope policy (default) recovers at
// least as much throughput as hold, and no policy collapses (< 50 % of the
// post-change optimum).
func AblationRecovery(o Options) (*Outcome, error) {
	w := o.writer()
	policies := []core.RecoveryPolicy{core.RecoverHold, core.RecoverReset, core.RecoverSlope}
	ratios := map[string]float64{}
	for _, p := range policies {
		sub := o
		sub.W = nil // keep the child experiments quiet; we table the results
		out, err := fig08WithPolicy(sub, p, "recovery-"+p.String())
		if err != nil {
			return nil, err
		}
		ratios[p.String()] = out.Metrics["ratio"]
	}
	tbl := &plot.Table{Header: []string{"recovery policy", "T vs post-change optimum"}}
	for _, p := range policies {
		tbl.AddRow(p.String(), ratios[p.String()])
	}
	fmt.Fprintln(w, "Ablation — §5.2 recovery policies on the figure-8 scenario")
	tbl.Render(w)

	pass := ratios["slope"] >= ratios["hold"]-0.05
	for _, r := range ratios {
		if r < 0.5 {
			pass = false
		}
	}
	out := &Outcome{
		ID: "recovery", Title: "PA recovery policies",
		Metrics: map[string]float64{
			"hold": ratios["hold"], "reset": ratios["reset"], "slope": ratios["slope"],
		},
		Pass: pass,
	}
	out.Summary = fmt.Sprintf("post-change throughput ratio: slope %.2f, reset %.2f, hold %.2f",
		ratios["slope"], ratios["reset"], ratios["hold"])
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// AblationDisplacement compares §4.3 enforcement options when the optimum
// drops: admission control only (option i) versus displacement (option ii).
// Criteria: displacement pulls the load below the new bound faster, and
// admission-only is no worse on mean throughput (the paper's reason to
// prefer it: aborting live transactions wastes resources, and not
// displacing smooths behaviour).
func AblationDisplacement(o Options) (*Outcome, error) {
	w := o.writer()
	build := func(displace bool) (*tpsim.Result, float64) {
		cfg := baseCfg(o)
		cfg.Terminals = 900
		cfg.Duration = o.dur(600)
		cfg.WarmUp = 0
		cfg.MeasureEvery = o.interval(5)
		cfg.Displacement = displace
		at := cfg.Duration / 2
		// A controller that deliberately halves the bound mid-run.
		cfg.Controller = &stepController{at: at, before: 400, after: 120}
		return runOne(cfg), at
	}
	drainOnly, at := build(false)
	displaced, _ := build(true)

	// Time for the load to fall below 1.1×new bound after the drop.
	settleTime := func(r *tpsim.Result) float64 {
		for _, p := range r.Load.Points {
			if p.T > at && p.V <= 120*1.1 {
				return p.T - at
			}
		}
		return math.Inf(1)
	}
	dT, aT := settleTime(displaced), settleTime(drainOnly)
	tbl := &plot.Table{Header: []string{"enforcement", "settle time (s)", "mean T", "displaced"}}
	tbl.AddRow("admission-only", aT, drainOnly.MeanThroughput(), drainOnly.Displacements())
	tbl.AddRow("displacement", dT, displaced.MeanThroughput(), displaced.Displacements())
	fmt.Fprintln(w, "Ablation — §4.3 displacement vs admission control only")
	tbl.Render(w)

	out := &Outcome{
		ID: "displacement", Title: "Displacement",
		Metrics: map[string]float64{
			"admission_settle_s": aT, "displacement_settle_s": dT,
			"admission_T": drainOnly.MeanThroughput(), "displacement_T": displaced.MeanThroughput(),
		},
		Pass: dT < aT && drainOnly.MeanThroughput() >= 0.95*displaced.MeanThroughput(),
	}
	out.Summary = fmt.Sprintf("displacement settles in %.0fs vs %.0fs, at no throughput gain (%.0f vs %.0f tx/s)",
		dT, aT, displaced.MeanThroughput(), drainOnly.MeanThroughput())
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// stepController halves the bound at a fixed time (test double shared by
// the displacement ablation).
type stepController struct{ at, before, after float64 }

func (c *stepController) Update(s core.Sample) float64 {
	if s.Time >= c.at {
		return c.after
	}
	return c.before
}
func (c *stepController) Bound() float64 { return c.before }
func (c *stepController) Name() string   { return "step" }

// AblationInterval probes the §5 stability/responsiveness balance: the
// measurement interval must be long enough to filter noise ("rather
// hundreds of departures than some tens") yet short enough to react. We
// run PA with different Δt on the jump scenario. Criterion: the mid-range
// interval beats both the extreme short and the extreme long one on
// settled tracking error.
func AblationInterval(o Options) (*Outcome, error) {
	w := o.writer()
	intervals := []float64{1, 5, 40}
	errs := make([]float64, len(intervals))
	for i, dt := range intervals {
		cfg := baseCfg(o)
		cfg.Terminals = 900
		cfg.Duration = o.dur(1000)
		cfg.WarmUp = 0
		cfg.MeasureEvery = dt
		cfg.Mix = jumpMix(cfg.Duration / 2)
		paCfg := core.DefaultPAConfig()
		paCfg.Initial = 200
		cfg.Controller = core.NewPA(paCfg)
		res := runOne(cfg)
		// Tracking error against the calibrated optima (≈280 then ≈470).
		at := cfg.Duration / 2
		optimum := func(t float64) float64 {
			if t < at {
				return 280
			}
			return 470
		}
		errs[i] = trackErr(res.Bound, optimum, cfg.Duration*0.2, cfg.Duration)
	}
	tbl := &plot.Table{Header: []string{"interval Δt (s)", "≈departures/interval", "tracking err"}}
	for i, dt := range intervals {
		tbl.AddRow(dt, dt*150, errs[i]) // ~150 tx/s typical
	}
	fmt.Fprintln(w, "Ablation — §5 measurement interval length (PA, jump scenario)")
	tbl.Render(w)

	out := &Outcome{
		ID: "interval", Title: "Measurement interval",
		Metrics: map[string]float64{
			"err_short": errs[0], "err_mid": errs[1], "err_long": errs[2],
		},
		Pass: errs[1] <= errs[0]*1.05 && errs[1] <= errs[2]*1.1,
	}
	out.Summary = fmt.Sprintf("tracking error: Δt=1s → %.0f, Δt=5s → %.0f, Δt=40s → %.0f",
		errs[0], errs[1], errs[2])
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Ablation2PL demonstrates the §1 blocking-class thrashing: under strict
// 2PL the number of blocked transactions grows quadratically and throughput
// collapses beyond a critical load — load control applies to both CC
// classes. Criterion: unimodal 2PL curve with ≥20 % drop, plus a controlled
// run that beats the uncontrolled one at the heaviest load.
func Ablation2PL(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Protocol = tpsim.TwoPL
	cfg.DBSize = 2000 // blocking needs tighter contention to bite
	cfg.Mix = workload.Mix{
		K:         workload.Constant{V: 6},
		QueryFrac: workload.Constant{V: 0.1},
		WriteFrac: workload.Constant{V: 0.6},
	}
	cfg.Duration = o.dur(150)
	cfg.WarmUp = cfg.Duration / 4

	terms := linspace(20, 500, maxI(5, o.gridN(7)))
	curve := telemetry.Series{Name: "throughput_2pl"}
	for _, n := range terms {
		c := cfg
		c.Terminals = int(n)
		curve.Add(n, runOne(c).MeanThroughput())
	}
	if err := saveCSV(o, "ablation_2pl", curve); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Ablation — strict 2PL thrashing curve")
	chart.XLabel, chart.YLabel = "offered load (terminals)", "committed tx/s"
	chart.AddSeries(curve)
	chart.Render(w)

	peak := curve.Max()
	edge := curve.Points[curve.Len()-1].V
	drop := (peak.V - edge) / math.Max(peak.V, 1e-9)

	// Controlled vs uncontrolled at the heaviest load.
	heavy := cfg
	heavy.Terminals = int(terms[len(terms)-1])
	uncontrolled := runOne(heavy).MeanThroughput()
	heavy.Controller = core.NewPA(core.DefaultPAConfig())
	controlled := runOne(heavy).MeanThroughput()

	out := &Outcome{
		ID: "twopl", Title: "2PL thrashing",
		Metrics: map[string]float64{
			"peak_T": peak.V, "peak_load": peak.T, "edge_T": edge, "drop_frac": drop,
			"controlled_T": controlled, "uncontrolled_T": uncontrolled,
		},
		Pass: drop >= 0.2 && controlled > uncontrolled,
	}
	out.Summary = fmt.Sprintf("2PL peaks %.0f tx/s at N=%.0f, drops %.0f%%; PA control recovers %.0f vs %.0f",
		peak.V, peak.T, drop*100, controlled, uncontrolled)
	fmt.Fprintln(w, out.Summary)
	return out, nil
}
