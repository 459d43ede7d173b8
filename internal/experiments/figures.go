package experiments

import (
	"fmt"
	"math"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/estimate"
	"github.com/tpctl/loadctl/internal/metrics"
	"github.com/tpctl/loadctl/internal/plot"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/workload"
)

// Fig01 reproduces figure 1: the load-throughput function with its three
// phases — underload (near-linear growth), saturation, and overload
// (throughput drop). Criterion: unimodal curve with a ≥20 % drop from the
// peak at the right edge.
func Fig01(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Duration = o.dur(150)
	cfg.WarmUp = cfg.Duration / 4

	terms := linspace(100, 900, o.gridN(9))
	xs := make([]float64, len(terms))
	ts := make([]float64, len(terms))
	for i, n := range terms {
		c := cfg
		c.Terminals = int(n)
		xs[i] = n
		ts[i] = runOne(c).MeanThroughput()
	}
	curve := seriesFromXY("throughput", xs, ts)
	if err := saveCSV(o, "fig01_throughput_function", curve); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Fig. 1 — throughput function (underload / saturation / thrashing)")
	chart.XLabel, chart.YLabel = "offered load (terminals)", "committed tx/s"
	chart.AddSeries(curve)
	chart.Render(w)

	peakX, peakY := plot.ArgMax(xs, ts)
	edge := ts[len(ts)-1]
	rise := ts[0] < peakY
	drop := (peakY - edge) / peakY
	out := &Outcome{
		ID: "fig01", Title: "Throughput function",
		Metrics: map[string]float64{
			"peak_load": peakX, "peak_T": peakY, "edge_T": edge, "drop_frac": drop,
		},
		Pass: rise && drop >= 0.20 && peakX > xs[0] && peakX < xs[len(xs)-1],
	}
	out.Summary = fmt.Sprintf("unimodal, peak %.0f tx/s at N=%.0f, drop %.0f%% at N=%.0f",
		peakY, peakX, drop*100, xs[len(xs)-1])
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Fig02 reproduces figure 2: the performance surface P(n, t) whose ridge
// wanders as the workload changes. We sweep static bounds under a
// sinusoidal k(t) and verify the ridge (argmax over bounds) moves over
// time. Criterion: the ridge position spans at least a 1.3× range.
func Fig02(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(800)
	cfg.WarmUp = 0
	period := cfg.Duration / 2    // two full cycles per horizon
	cfg.MeasureEvery = period / 8 // 8 phase bins per cycle
	cfg.Mix = sinusoidMix(period)

	bounds := linspace(200, 550, maxI(4, o.gridN(8)))
	// surface[b] = throughput series over time at bound b
	var surfaces []metrics.Series
	for _, b := range bounds {
		c := cfg
		c.Controller = core.NewStatic(b)
		r := runOne(c)
		s := r.Throughput
		s.Name = fmt.Sprintf("n*=%.0f", b)
		surfaces = append(surfaces, s)
	}
	if err := saveCSV(o, "fig02_surface", surfaces...); err != nil {
		return nil, err
	}

	// Ridge: per time bin, which bound wins?
	nBins := surfaces[0].Len()
	ridge := metrics.Series{Name: "ridge"}
	for bin := 0; bin < nBins; bin++ {
		bestB, bestT := bounds[0], math.Inf(-1)
		for i, s := range surfaces {
			if s.Points[bin].V > bestT {
				bestT = s.Points[bin].V
				bestB = bounds[i]
			}
		}
		ridge.Add(surfaces[0].Points[bin].T, bestB)
	}
	chart := plot.NewChart("Fig. 2 — ridge of P(n,t) under sinusoidal k(t)")
	chart.XLabel, chart.YLabel = "time (s)", "argmax load bound"
	chart.AddSeries(ridge)
	chart.Render(w)

	lo, hi := math.Inf(1), math.Inf(-1)
	// Ignore the first bin (transient fill).
	for _, p := range ridge.Points[min(1, ridge.Len()-1):] {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	out := &Outcome{
		ID: "fig02", Title: "Dynamic throughput surface",
		Metrics: map[string]float64{"ridge_min": lo, "ridge_max": hi},
		Pass:    hi >= lo*1.3,
	}
	out.Summary = fmt.Sprintf("ridge moves between n*≈%.0f and n*≈%.0f as k(t) swings", lo, hi)
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Fig03 reproduces figure 3: the zig-zag trajectory of the Incremental
// Steps climber under stationary load. Criteria: the bound keeps moving
// (direction reversals present) and settles near the static optimum.
func Fig03(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(800)
	cfg.WarmUp = 0
	cfg.MeasureEvery = o.interval(5)
	isCfg := core.DefaultISConfig()
	isCfg.Initial = 100
	cfg.Controller = core.NewIS(isCfg)
	res := runOne(cfg)

	if err := saveCSV(o, "fig03_is_trajectory", res.Bound, res.Throughput); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Fig. 3 — IS trajectory (zig-zag ridge tracking)")
	chart.XLabel, chart.YLabel = "time (s)", "load bound n*"
	chart.AddSeries(res.Bound)
	chart.Render(w)

	// Count direction reversals in the second half.
	half := res.Bound.Points[res.Bound.Len()/2:]
	reversals := 0
	for i := 2; i < len(half); i++ {
		d1 := half[i-1].V - half[i-2].V
		d2 := half[i].V - half[i-1].V
		if d1*d2 < 0 {
			reversals++
		}
	}
	settled := meanTail(res.Bound, 0.3)
	out := &Outcome{
		ID: "fig03", Title: "IS zig-zag trajectory",
		Metrics: map[string]float64{
			"reversals": float64(reversals), "settled_bound": settled,
			"mean_T": res.MeanThroughput(),
		},
		// The calibrated optimum for the default mix sits around 350-500.
		Pass: reversals >= 3 && settled > 150 && settled < 700,
	}
	out.Summary = fmt.Sprintf("bound zig-zags (%d reversals), settles ≈%.0f", reversals, settled)
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Fig06 reproduces figure 6: two estimator memories with equal information
// content — one long rectangular window with no aging (α=0) versus short
// intervals with exponential aging (α=0.8). The paper argues the faded
// short-interval estimator is preferable; criterion: after an optimum jump
// its vertex error is smaller than the rectangular window's.
func Fig06(o Options) (*Outcome, error) {
	w := o.writer()
	g := sim.NewRNG(o.Seed)
	// Equal information: window of W samples vs RLS with alpha such that
	// the effective memory 1/(1-alpha) = W/5 at 5× shorter intervals —
	// mirroring the paper's "interval five times smaller, α=0.8".
	const window = 25
	alpha := 0.8
	rect := estimate.NewWindowParabola(window, 100)
	fade := estimate.NewParabola(alpha, 100)

	truth := func(opt, n float64) float64 { return 100 - 0.003*(n-opt)*(n-opt) }
	opt := 250.0
	// The rectangular estimator samples every 5th tick (long interval, the
	// sample then represents a 5-tick average); the faded one every tick.
	var rectErr, fadeErr metrics.Series
	rectErr.Name, fadeErr.Name = "rect_window_err", "faded_rls_err"
	steps := int(600 * math.Max(o.Scale, 0.2))
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			opt = 450 // abrupt change
		}
		n := g.Uniform(150, 550)
		y := truth(opt, n) + g.NormFloat64()
		fade.Update(n, y)
		if i%5 == 0 {
			rect.Update(n, y)
		}
		if i > 10 {
			if v, ok := rect.Vertex(); ok {
				rectErr.Add(float64(i), math.Abs(v-opt))
			}
			if v, ok := fade.Vertex(); ok {
				fadeErr.Add(float64(i), math.Abs(v-opt))
			}
		}
	}
	if err := saveCSV(o, "fig06_rect_err", rectErr); err != nil {
		return nil, err
	}
	if err := saveCSV(o, "fig06_fade_err", fadeErr); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Fig. 6 — estimator memory: rectangular vs exponentially faded")
	chart.XLabel, chart.YLabel = "sample index", "|vertex − true optimum|"
	chart.AddSeries(rectErr)
	chart.AddSeries(fadeErr)
	chart.Render(w)

	// Compare tracking error in the quarter after the jump.
	from := float64(steps / 2)
	to := float64(steps/2 + steps/4)
	rErr := windowMean(rectErr, from, to)
	fErr := windowMean(fadeErr, from, to)
	out := &Outcome{
		ID: "fig06", Title: "Estimator memory shapes",
		Metrics: map[string]float64{"rect_err_after_jump": rErr, "fade_err_after_jump": fErr},
		Pass:    fErr < rErr,
	}
	out.Summary = fmt.Sprintf("post-jump vertex error: faded RLS %.1f vs rectangular window %.1f",
		fErr, rErr)
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

func windowMean(s metrics.Series, from, to float64) float64 {
	var w telemetry.Welford
	for _, p := range s.Points {
		if p.T >= from && p.T <= to {
			w.Add(p.V)
		}
	}
	return w.Mean()
}

// Fig07 reproduces the figure 7 pathology: a broad flat optimum region
// (light-contention workload) where noisy measurements can suggest a convex
// function. Criterion: PA's throughput stays within 12 % of the best static
// bound despite recovery events.
func Fig07(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(700)
	cfg.WarmUp = cfg.Duration / 4
	cfg.MeasureEvery = o.interval(5)
	// Very light contention: queries dominate — the hump is broad and flat.
	cfg.Mix = workload.Mix{
		K:         workload.Constant{V: 4},
		QueryFrac: workload.Constant{V: 0.9},
		WriteFrac: workload.Constant{V: 0.3},
	}
	paCfg := core.DefaultPAConfig()
	pa := core.NewPA(paCfg)
	cfg.Controller = pa
	res := runOne(cfg)

	// Reference: best static bound over a small grid.
	ref := cfg
	ref.Duration = o.dur(250)
	ref.WarmUp = ref.Duration / 4
	_, ts := staticSweep(ref, linspace(200, 700, o.gridN(5)))
	bestStatic := math.Inf(-1)
	for _, t := range ts {
		bestStatic = math.Max(bestStatic, t)
	}

	if err := saveCSV(o, "fig07_flat_hump", res.Bound, res.Throughput); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Fig. 7 — PA on a broad flat hump")
	chart.XLabel, chart.YLabel = "time (s)", "bound / throughput"
	chart.AddSeries(res.Bound)
	chart.AddSeries(res.Throughput)
	chart.Render(w)

	ratio := res.MeanThroughput() / bestStatic
	out := &Outcome{
		ID: "fig07", Title: "Flat hump pathology",
		Metrics: map[string]float64{
			"pa_T": res.MeanThroughput(), "best_static_T": bestStatic,
			"ratio": ratio, "recoveries": float64(pa.Recoveries()),
		},
		Pass: ratio > 0.88,
	}
	out.Summary = fmt.Sprintf("PA %.0f tx/s vs best static %.0f (%.0f%%), %d upward-parabola recoveries",
		res.MeanThroughput(), bestStatic, ratio*100, pa.Recoveries())
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Fig08 reproduces the figure 8 pathology: the performance function changes
// shape abruptly, stranding the bound in a region where the surface is
// convex and the estimated parabola opens upward. Criterion: recovery fires
// and throughput after the change recovers to ≥80 % of the post-change
// optimum.
func Fig08(o Options) (*Outcome, error) {
	return fig08WithPolicy(o, core.RecoverSlope, "fig08")
}

func fig08WithPolicy(o Options, policy core.RecoveryPolicy, id string) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(1000)
	cfg.WarmUp = 0
	cfg.MeasureEvery = o.interval(5)
	at := cfg.Duration / 2
	// Shape change: k jumps 16 → 4; the optimum drops from ≈470 to ≈280
	// and the old bound sits on the new curve's thrashing side.
	cfg.Mix = workload.Mix{
		K:         workload.Jump{At: at, Before: 16, After: 4},
		QueryFrac: workload.Constant{V: 0.25},
		WriteFrac: workload.Constant{V: 0.5},
	}
	paCfg := core.DefaultPAConfig()
	paCfg.Recovery = policy
	paCfg.Initial = 300
	pa := core.NewPA(paCfg)
	cfg.Controller = pa
	res := runOne(cfg)

	// Post-change reference optimum (k=4 stationary).
	ref := cfg
	ref.Mix = workload.Mix{K: workload.Constant{V: 4},
		QueryFrac: workload.Constant{V: 0.25}, WriteFrac: workload.Constant{V: 0.5}}
	ref.Duration = o.dur(250)
	ref.WarmUp = ref.Duration / 4
	_, ts := staticSweep(ref, linspace(150, 500, o.gridN(4)))
	bestT := math.Inf(-1)
	for _, t := range ts {
		bestT = math.Max(bestT, t)
	}

	if err := saveCSV(o, id+"_abrupt_change", res.Bound, res.Throughput); err != nil {
		return nil, err
	}
	chart := plot.NewChart(fmt.Sprintf("Fig. 8 — abrupt shape change (recovery policy %v)", policy))
	chart.XLabel, chart.YLabel = "time (s)", "bound n*"
	chart.AddSeries(res.Bound)
	chart.Render(w)

	// Throughput in the final quarter vs the post-change optimum.
	finalT := meanTail(res.Throughput, 0.25)
	ratio := finalT / bestT
	out := &Outcome{
		ID: id, Title: "Abrupt shape change",
		Metrics: map[string]float64{
			"final_T": finalT, "best_static_T": bestT, "ratio": ratio,
			"recoveries": float64(pa.Recoveries()),
		},
		Pass: ratio >= 0.8,
	}
	out.Summary = fmt.Sprintf("policy=%v: settles to %.0f tx/s = %.0f%% of post-change optimum (%d recoveries)",
		policy, finalT, ratio*100, pa.Recoveries())
	fmt.Fprintln(w, out.Summary)
	return out, nil
}
