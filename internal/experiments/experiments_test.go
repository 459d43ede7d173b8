package experiments

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyOpts keeps experiment tests fast; shape checks at this scale are
// covered by the experiments' own Pass criteria where robust, and by the
// full-fidelity suite (cmd/experiments) otherwise.
func tinyOpts() Options {
	return Options{Seed: 1, Scale: 0.12}
}

func TestRegistryComplete(t *testing.T) {
	// Every DESIGN.md experiment ID is registered exactly once.
	want := []string{"fig01", "fig02", "fig03", "fig06", "fig07", "fig08",
		"fig12", "fig13", "fig14", "sec6", "sinusoid", "jumpcmp",
		"baselines", "recovery", "displacement", "interval", "twopl",
		"analytic", "protocols"}
	seen := map[string]int{}
	for _, e := range All {
		seen[e.ID]++
		if e.Run == nil {
			t.Fatalf("%s has no Run", e.ID)
		}
		if e.Title == "" {
			t.Fatalf("%s has no title", e.ID)
		}
	}
	for _, id := range want {
		if seen[id] != 1 {
			t.Fatalf("experiment %s registered %d times", id, seen[id])
		}
	}
	if len(All) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(All), len(want))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig12"); !ok {
		t.Fatal("fig12 missing")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestFig01ShapeAtTinyScale(t *testing.T) {
	out, err := Fig01(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["peak_T"] <= 0 {
		t.Fatal("no throughput measured")
	}
	if !out.Pass {
		t.Fatalf("fig01 shape failed: %s", out.Summary)
	}
}

func TestFig06ShapeAtTinyScale(t *testing.T) {
	out, err := Fig06(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass {
		t.Fatalf("fig06 shape failed: %s", out.Summary)
	}
}

func TestFig12ShapeAtTinyScale(t *testing.T) {
	out, err := Fig12(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Pass {
		t.Fatalf("fig12 shape failed: %s", out.Summary)
	}
	if out.Metrics["gain_at_edge"] < 1.15 {
		t.Fatalf("control gain %v too small", out.Metrics["gain_at_edge"])
	}
}

func TestJumpComparisonPABeatsIS(t *testing.T) {
	out, err := Sec9JumpComparison(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if out.Metrics["pa_T"] <= out.Metrics["noctl_T"] {
		t.Fatalf("PA %v did not beat no-control %v",
			out.Metrics["pa_T"], out.Metrics["noctl_T"])
	}
}

func TestOutcomeString(t *testing.T) {
	out := &Outcome{ID: "x", Title: "T", Summary: "s", Pass: true}
	if !strings.Contains(out.String(), "SHAPE-OK") {
		t.Fatal("pass marker missing")
	}
	out.Pass = false
	if !strings.Contains(out.String(), "SHAPE-MISMATCH") {
		t.Fatal("fail marker missing")
	}
}

func TestCSVOutputs(t *testing.T) {
	dir := t.TempDir()
	o := tinyOpts()
	o.OutDir = dir
	if _, err := Fig01(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig01_throughput_function.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,throughput") {
		t.Fatalf("csv header wrong: %q", string(data)[:40])
	}
	lines := strings.Count(string(data), "\n")
	if lines < 4 {
		t.Fatalf("csv too short: %d lines", lines)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.1}
	if d := o.dur(1000); math.Abs(d-100) > 1e-9 {
		t.Fatalf("dur = %v", d)
	}
	if d := o.dur(100); d != 40 {
		t.Fatalf("dur floor = %v", d)
	}
	if dt := o.interval(5); dt != 1.2 {
		t.Fatalf("interval floor = %v", dt)
	}
	full := Options{Scale: 1}
	if n := full.gridN(9); n != 9 {
		t.Fatalf("full grid = %d", n)
	}
	if n := o.gridN(9); n < 3 || n > 9 {
		t.Fatalf("scaled grid = %d", n)
	}
}

func TestHelpers(t *testing.T) {
	xs := linspace(0, 10, 3)
	if xs[0] != 0 || xs[1] != 5 || xs[2] != 10 {
		t.Fatalf("linspace = %v", xs)
	}
	if got := linspace(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("degenerate linspace = %v", got)
	}
	s := seriesFromXY("s", []float64{1, 2}, []float64{10, 20})
	if s.Len() != 2 || s.Points[1].V != 20 {
		t.Fatalf("seriesFromXY = %v", s)
	}
	if m := meanTail(s, 0.5); m != 20 {
		t.Fatalf("meanTail = %v", m)
	}
	err := trackErr(s, func(float64) float64 { return 15 }, 0, 3)
	if math.Abs(err-5) > 1e-9 {
		t.Fatalf("trackErr = %v", err)
	}
	if !math.IsNaN(trackErr(s, func(float64) float64 { return 0 }, 99, 100)) {
		t.Fatal("empty window should be NaN")
	}
}

// Every registered experiment is a deterministic function of its Options:
// two runs agree on the outcome, every metric and every CSV byte. Scale
// 0.03 is where every Options floor binds (40 s horizons, 1.2 s intervals,
// 3-point grids), the smallest runs the experiments have.
func TestDeterministicOutcomes(t *testing.T) {
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			a, aCSV := runWithCSV(t, e)
			b, bCSV := runWithCSV(t, e)
			// %v prints map keys sorted and each float exactly.
			if a.String() != b.String() || fmt.Sprint(a.Metrics) != fmt.Sprint(b.Metrics) {
				t.Fatalf("outcome diverged:\n%s %v\n%s %v", a, a.Metrics, b, b.Metrics)
			}
			if !maps.EqualFunc(aCSV, bCSV, bytes.Equal) {
				t.Fatal("CSV output diverged between runs")
			}
		})
	}
}

// runWithCSV runs e into a fresh OutDir and returns its outcome and the
// CSV files it wrote, by name.
func runWithCSV(t *testing.T, e Experiment) (*Outcome, map[string][]byte) {
	t.Helper()
	o := Options{Seed: 1, Scale: 0.03, OutDir: t.TempDir()}
	out, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(o.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, de := range entries {
		data, err := os.ReadFile(filepath.Join(o.OutDir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = data
	}
	return out, files
}
