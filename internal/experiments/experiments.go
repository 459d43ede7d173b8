// Package experiments regenerates every table and figure of Heiss & Wagner
// (VLDB 1991) plus the ablations listed in DESIGN.md. Each experiment is a
// named generator that runs the required simulations, renders an ASCII
// chart and/or table, optionally writes CSV files, and reports a shape
// verdict: the reproduction criterion from DESIGN.md §4 (who wins, where
// the optimum falls, how pronounced the thrashing is) — not absolute
// numbers.
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/metrics"
	"github.com/tpctl/loadctl/internal/plot"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/tpsim"
	"github.com/tpctl/loadctl/internal/workload"
)

// Options controls experiment fidelity and output.
type Options struct {
	// Seed drives all runs (deterministic reproduction).
	Seed int64
	// Scale in (0, 1] shrinks horizons and grids; 1.0 is full fidelity,
	// benches use ~0.15 to stay fast.
	Scale float64
	// OutDir receives CSV files when non-empty.
	OutDir string
	// W receives charts and progress (nil: discard).
	W io.Writer
}

// DefaultOptions returns full-fidelity options writing nothing.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: 1.0}
}

func (o Options) writer() io.Writer {
	if o.W == nil {
		return io.Discard
	}
	return o.W
}

// dur scales a full-fidelity duration, with a floor to keep measurement
// intervals meaningful.
func (o Options) dur(full float64) float64 {
	d := full * o.Scale
	if d < 40 {
		d = 40
	}
	return d
}

// interval scales the measurement interval so controlled runs keep a
// useful number of controller updates at low scale (floor 1.2 s keeps the
// §5 "hundreds of departures" rule at typical throughputs).
func (o Options) interval(full float64) float64 {
	dt := full * o.Scale
	if dt < 1.2 {
		dt = 1.2
	}
	return dt
}

// gridN thins a sweep grid at low scale (at least 3 points).
func (o Options) gridN(full int) int {
	n := int(float64(full) * math.Sqrt(o.Scale))
	if n < 3 {
		n = 3
	}
	if n > full {
		n = full
	}
	return n
}

// Outcome is the result of one experiment.
type Outcome struct {
	ID      string
	Title   string
	Summary string
	// Metrics are the headline numbers (paper-claim-relevant).
	Metrics map[string]float64
	// Pass reports whether the DESIGN.md shape criterion held.
	Pass bool
}

func (out *Outcome) String() string {
	status := "SHAPE-OK"
	if !out.Pass {
		status = "SHAPE-MISMATCH"
	}
	return fmt.Sprintf("[%s] %s — %s (%s)", out.ID, out.Title, out.Summary, status)
}

// Experiment is one registered generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Outcome, error)
}

// All lists every experiment in DESIGN.md §4 order.
var All = []Experiment{
	{"fig01", "Throughput function with thrashing (Fig. 1)", Fig01},
	{"fig02", "Dynamic behaviour of the throughput surface (Fig. 2)", Fig02},
	{"fig03", "Incremental Steps zig-zag trajectory (Fig. 3)", Fig03},
	{"fig06", "Estimator memory shapes ablation (Fig. 6)", Fig06},
	{"fig07", "Flat hump pathology (Fig. 7)", Fig07},
	{"fig08", "Abrupt shape change pathology (Fig. 8)", Fig08},
	{"fig12", "Stationary throughput with vs without control (Fig. 12)", Fig12},
	{"fig13", "IS trajectory under optimum jump (Fig. 13)", Fig13},
	{"fig14", "PA trajectory under optimum jump (Fig. 14)", Fig14},
	{"sec6", "Performance indicator comparison (§6)", Sec6},
	{"sinusoid", "Sinusoidal workload tracking (§9)", Sec9Sinusoid},
	{"jumpcmp", "IS vs PA jump comparison (§9/§10)", Sec9JumpComparison},
	{"baselines", "Baseline controller table (§1 alternatives)", Baselines},
	{"recovery", "Ablation: PA recovery policies (§5.2)", AblationRecovery},
	{"displacement", "Ablation: displacement on/off (§4.3)", AblationDisplacement},
	{"interval", "Ablation: measurement interval length (§5)", AblationInterval},
	{"twopl", "Ablation: blocking CC (2PL) thrashing (§1)", Ablation2PL},
	{"analytic", "Extension: analytic OCC model vs simulator", Analytic},
	{"protocols", "Extension: adaptive control across CC protocols", Protocols},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared scenario builders -------------------------------------------

// baseCfg is the calibrated default of DESIGN.md §3.
func baseCfg(o Options) tpsim.Config {
	cfg := tpsim.DefaultConfig()
	cfg.Seed = o.Seed
	return cfg
}

// jumpMix is the figure 13/14 scenario: transaction size k jumps 4 → 16
// at half the horizon, moving the optimum from ≈280 to ≈470 and collapsing
// its height (k is the first §7 workload knob).
func jumpMix(at float64) workload.Mix {
	return workload.Mix{
		K:         workload.Jump{At: at, Before: 4, After: 16},
		QueryFrac: workload.Constant{V: 0.25},
		WriteFrac: workload.Constant{V: 0.5},
	}
}

// sinusoidMix is the §9 gradual-change scenario: k(t) = 10 + 6·sin(2πt/T).
func sinusoidMix(period float64) workload.Mix {
	return workload.Mix{
		K:         workload.Sinusoid{Mean: 10, Amp: 6, Period: period},
		QueryFrac: workload.Constant{V: 0.25},
		WriteFrac: workload.Constant{V: 0.5},
	}
}

// runOne executes a single simulation.
func runOne(cfg tpsim.Config) *tpsim.Result {
	return tpsim.New(cfg).Run()
}

// staticSweep runs stationary simulations at each fixed bound and returns
// (bounds, mean post-warm-up throughputs).
func staticSweep(cfg tpsim.Config, bounds []float64) ([]float64, []float64) {
	ts := make([]float64, len(bounds))
	for i, b := range bounds {
		c := cfg
		c.Controller = core.NewStatic(b)
		ts[i] = runOne(c).MeanThroughput()
	}
	return bounds, ts
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// linspace returns n evenly spaced values in [lo, hi].
func linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// saveCSV writes series to OutDir/<name>.csv when OutDir is set.
func saveCSV(o Options, name string, series ...metrics.Series) error {
	if o.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.OutDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return plot.WriteCSV(f, series...)
}

// seriesFromXY builds a Series from x/y slices.
func seriesFromXY(name string, xs, ys []float64) metrics.Series {
	s := metrics.Series{Name: name}
	for i := range xs {
		s.Add(xs[i], ys[i])
	}
	return s
}

// meanTail returns the mean of the last frac of a series' values.
func meanTail(s metrics.Series, frac float64) float64 {
	n := s.Len()
	if n == 0 {
		return 0
	}
	start := int(float64(n) * (1 - frac))
	var w telemetry.Welford
	for _, p := range s.Points[start:] {
		w.Add(p.V)
	}
	return w.Mean()
}

// trackErr computes the mean absolute deviation of a bound trajectory from
// a reference optimum over [from, to].
func trackErr(bound metrics.Series, optimum func(t float64) float64, from, to float64) float64 {
	var sum float64
	var n int
	for _, p := range bound.Points {
		if p.T < from || p.T > to {
			continue
		}
		sum += math.Abs(p.V - optimum(p.T))
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// fmtMetrics renders metrics sorted by key.
func fmtMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%.3g", k, m[k]))
	}
	return strings.Join(parts, " ")
}
