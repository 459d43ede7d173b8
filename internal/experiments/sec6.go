package experiments

import (
	"fmt"
	"math"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/plot"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/tpsim"
)

// Sec6 reproduces the §6 claim: several performance indicators are eligible
// as the controller's P — throughput, inverse response time, goodput
// (effective utilization), raw utilization — they define slightly different
// optimal loads, and the throughput has the most distinct extremum (the
// paper's reason for choosing T). We sweep static bounds, record each
// indicator's curve, and score "distinctness" as the normalized drop after
// the curve's peak (a flat plateau or monotone curve scores ~0).
func Sec6(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(250)
	cfg.WarmUp = cfg.Duration / 4

	bounds := linspace(100, 800, o.gridN(8))
	curves := map[string]*telemetry.Series{
		"throughput":   {Name: "throughput"},
		"inv_response": {Name: "inv_response"},
		"goodput":      {Name: "goodput"},
		"utilization":  {Name: "utilization"},
	}
	for _, b := range bounds {
		c := cfg
		c.Controller = core.NewStatic(b)
		r := runOne(c)
		curves["throughput"].Add(b, r.MeanThroughput())
		if rt := r.MeanResp(); rt > 0 {
			curves["inv_response"].Add(b, 1/rt)
		} else {
			curves["inv_response"].Add(b, 0)
		}
		curves["goodput"].Add(b, r.Goodput.MeanAfter(cfg.WarmUp))
		curves["utilization"].Add(b, r.Util.MeanAfter(cfg.WarmUp))
	}
	if err := saveCSV(o, "sec6_indicators", *curves["throughput"],
		*curves["inv_response"], *curves["goodput"], *curves["utilization"]); err != nil {
		return nil, err
	}

	// Distinctness: (peak − right edge)/peak for a maximizable curve.
	distinct := func(s *telemetry.Series) (argmax, score float64) {
		peak := s.Max()
		edge := s.Points[s.Len()-1].V
		if peak.V <= 0 {
			return peak.T, 0
		}
		return peak.T, (peak.V - edge) / peak.V
	}
	tbl := &plot.Table{Header: []string{"indicator", "optimal n*", "distinctness"}}
	scores := map[string]float64{}
	optima := map[string]float64{}
	for _, name := range []string{"throughput", "inv_response", "goodput", "utilization"} {
		am, sc := distinct(curves[name])
		scores[name] = sc
		optima[name] = am
		tbl.AddRow(name, am, sc)
	}
	fmt.Fprintln(w, "§6 — candidate performance indicators")
	tbl.Render(w)

	// Shape criteria: (1) throughput's extremum is interior and at least
	// as distinct as raw utilization's (which saturates flat); (2) the
	// indicators do not all agree on the optimum ("slightly different
	// optimal loads").
	interior := optima["throughput"] > bounds[0] && optima["throughput"] < bounds[len(bounds)-1]
	allSame := true
	for _, n := range []string{"inv_response", "goodput", "utilization"} {
		if optima[n] != optima["throughput"] {
			allSame = false
		}
	}
	out := &Outcome{
		ID: "sec6", Title: "Performance indicators",
		Metrics: map[string]float64{
			"T_opt": optima["throughput"], "T_distinct": scores["throughput"],
			"util_distinct": scores["utilization"], "goodput_opt": optima["goodput"],
			"invresp_opt": optima["inv_response"],
		},
		Pass: interior && scores["throughput"] > scores["utilization"]+0.05 && !allSame,
	}
	out.Summary = fmt.Sprintf("T extremum at n*=%.0f (distinctness %.2f) vs utilization %.2f; optima differ across indicators",
		optima["throughput"], scores["throughput"], scores["utilization"])
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Baselines reproduces the implicit §1 comparison: the four alternatives to
// feedback control (do nothing, fixed bound, Tay rule of thumb, Iyer rule)
// against IS and PA, across the three workload regimes (stationary, jump,
// sinusoid). Criterion: PA wins or ties (≥95 % of the best) every scenario;
// no-control loses every scenario.
func Baselines(o Options) (*Outcome, error) {
	w := o.writer()

	type scenario struct {
		name string
		cfg  func() (c coreConfig)
	}
	// coreConfig couples a tpsim config factory with its horizon.
	stationary := func() coreConfig {
		cfg := baseCfg(o)
		cfg.Terminals = 900
		cfg.Duration = o.dur(500)
		cfg.WarmUp = cfg.Duration / 5
		cfg.MeasureEvery = o.interval(5)
		return coreConfig{cfg}
	}
	jump := func() coreConfig {
		cfg := baseCfg(o)
		cfg.Terminals = 900
		cfg.Duration = o.dur(1000)
		cfg.WarmUp = cfg.Duration / 10
		cfg.MeasureEvery = o.interval(5)
		cfg.Mix = jumpMix(cfg.Duration / 2)
		return coreConfig{cfg}
	}
	sinusoid := func() coreConfig {
		cfg := baseCfg(o)
		cfg.Terminals = 900
		cfg.Duration = o.dur(1200)
		cfg.WarmUp = cfg.Duration / 10
		cfg.MeasureEvery = o.interval(5)
		cfg.Mix = sinusoidMix(cfg.Duration / 3)
		return coreConfig{cfg}
	}
	scenarios := []scenario{
		{"stationary", stationary},
		{"jump", jump},
		{"sinusoid", sinusoid},
	}

	controllers := []struct {
		name string
		make func(c coreConfig) core.Controller
	}{
		{"no-control", func(coreConfig) core.Controller { return nil }},
		{"static-400", func(coreConfig) core.Controller { return core.NewStatic(400) }},
		{"static-150", func(coreConfig) core.Controller { return core.NewStatic(150) }},
		{"tay-rule", func(c coreConfig) core.Controller {
			mix := c.cfg.Mix
			return core.NewTayRule(float64(c.cfg.DBSize),
				func(t float64) float64 { return float64(mix.KAt(t)) }, core.DefaultBounds())
		}},
		{"iyer-rule", func(coreConfig) core.Controller {
			return core.NewIyerRule(200, core.DefaultBounds())
		}},
		{"incr-steps", func(coreConfig) core.Controller {
			return core.NewIS(core.DefaultISConfig())
		}},
		{"parabola", func(coreConfig) core.Controller {
			return core.NewPA(core.DefaultPAConfig())
		}},
	}

	tbl := &plot.Table{Header: []string{"controller", "stationary", "jump", "sinusoid"}}
	results := map[string]map[string]float64{}
	for _, ctl := range controllers {
		results[ctl.name] = map[string]float64{}
		row := []any{ctl.name}
		for _, sc := range scenarios {
			c := sc.cfg()
			c.cfg.Controller = ctl.make(c)
			t := runOne(c.cfg).MeanThroughput()
			results[ctl.name][sc.name] = t
			row = append(row, t)
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, "Baseline table — mean committed throughput (tx/s)")
	tbl.Render(w)

	pass := true
	margins := map[string]float64{}
	for _, sc := range scenarios {
		best := math.Inf(-1)
		for _, ctl := range controllers {
			best = math.Max(best, results[ctl.name][sc.name])
		}
		pa := results["parabola"][sc.name]
		none := results["no-control"][sc.name]
		margins["pa_vs_best_"+sc.name] = pa / best
		if pa < 0.85*best {
			pass = false
		}
		if none >= best {
			pass = false
		}
	}
	out := &Outcome{
		ID: "baselines", Title: "Baseline comparison",
		Metrics: margins,
		Pass:    pass,
	}
	out.Summary = fmt.Sprintf("PA within %s of the best controller per scenario; no-control never wins",
		fmtMetrics(margins))
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// coreConfig wraps a tpsim.Config so baseline controller factories can
// inspect it (Tay's rule needs D and k).
type coreConfig struct {
	cfg tpsim.Config
}
