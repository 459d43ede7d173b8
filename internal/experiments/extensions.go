package experiments

import (
	"fmt"
	"math"

	"github.com/tpctl/loadctl/internal/analytic"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/plot"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/tpsim"
)

// Analytic overlays the closed-form OCC fixed-point model (package
// analytic) on the simulated static-bound throughput curve. Criteria: the
// model's optimum position falls within a 0.6–1.6× band of the simulated
// one and both curves are unimodal — an independent cross-check that the
// simulator implements the contention physics the paper describes.
func Analytic(o Options) (*Outcome, error) {
	w := o.writer()
	cfg := baseCfg(o)
	cfg.Terminals = 900
	cfg.Duration = o.dur(200)
	cfg.WarmUp = cfg.Duration / 4

	k := 8.0
	cpu := 0.006 + k*0.001 + 0.006
	model := analytic.OCCModel{
		M:                   cfg.CPUs,
		CPUPerAttempt:       cpu,
		ResidencePerAttempt: cpu + (k+1)*0.090,
		K:                   k,
		D:                   float64(cfg.DBSize),
		QueryFrac:           0.25,
		WriteFrac:           0.5,
		Overlap:             0.9,
	}

	bounds := linspace(100, 800, maxI(5, o.gridN(8)))
	var simC, anaC telemetry.Series
	simC.Name, anaC.Name = "simulated", "analytic"
	for _, b := range bounds {
		c := cfg
		c.Controller = core.NewStatic(b)
		simC.Add(b, runOne(c).MeanThroughput())
		anaC.Add(b, model.Throughput(b))
	}
	if err := saveCSV(o, "analytic_overlay", simC, anaC); err != nil {
		return nil, err
	}
	chart := plot.NewChart("Analytic OCC model (+) vs simulator (*)")
	chart.XLabel, chart.YLabel = "bound n*", "committed tx/s"
	chart.AddSeries(simC)
	chart.AddSeries(anaC)
	chart.Render(w)

	simOpt := simC.Max()
	anaOptN, anaOptT := model.Optimum(900)
	ratio := anaOptN / simOpt.T
	out := &Outcome{
		ID: "analytic", Title: "Analytic cross-check",
		Metrics: map[string]float64{
			"sim_opt_n": simOpt.T, "sim_opt_T": simOpt.V,
			"ana_opt_n": anaOptN, "ana_opt_T": anaOptT,
			"position_ratio": ratio,
		},
		Pass: ratio > 0.6 && ratio < 1.6,
	}
	out.Summary = fmt.Sprintf("optimum: analytic n=%.0f (T=%.0f) vs simulated n=%.0f (T=%.0f)",
		anaOptN, anaOptT, simOpt.T, simOpt.V)
	fmt.Fprintln(w, out.Summary)
	return out, nil
}

// Protocols compares all four concurrency control schemes under identical
// overload, each with and without adaptive control — extending the paper's
// §1 claim that load control applies to blocking and non-blocking classes
// alike. Criterion: adaptive control does not lose (≥95 %) for any
// protocol, and strictly wins for at least two.
func Protocols(o Options) (*Outcome, error) {
	w := o.writer()
	protos := []tpsim.ProtocolKind{tpsim.OCC, tpsim.TSO, tpsim.TwoPL, tpsim.WaitDie}
	tbl := &plot.Table{Header: []string{"protocol", "no control", "PA control", "gain"}}
	m := map[string]float64{}
	wins := 0
	worst := math.Inf(1)
	for _, p := range protos {
		cfg := baseCfg(o)
		cfg.Protocol = p
		cfg.Terminals = 700
		cfg.DBSize = 4000 // tight enough that the blocking class suffers, with an interior optimum
		cfg.Duration = o.dur(800)
		cfg.WarmUp = cfg.Duration / 3 // exclude controller convergence
		cfg.MeasureEvery = o.interval(5)
		none := runOne(cfg).MeanThroughput()
		cfg.Controller = core.NewPA(core.DefaultPAConfig())
		ctl := runOne(cfg).MeanThroughput()
		gain := ctl / math.Max(none, 1e-9)
		tbl.AddRow(p.String(), none, ctl, gain)
		m[p.String()+"_gain"] = gain
		if gain > 1.05 {
			wins++
		}
		worst = math.Min(worst, gain)
	}
	fmt.Fprintln(w, "Extension — adaptive control across CC protocols (tx/s)")
	tbl.Render(w)

	// Shape criterion: control never hurts materially (the optimistic
	// schemes' cheap early aborts already self-throttle somewhat) and
	// clearly rescues at least the blocking class.
	out := &Outcome{
		ID: "protocols", Title: "Control across CC protocols",
		Metrics: m,
		Pass:    worst >= 0.9 && wins >= 2,
	}
	out.Summary = fmt.Sprintf("PA gain per protocol: %s", fmtMetrics(m))
	fmt.Fprintln(w, out.Summary)
	return out, nil
}
