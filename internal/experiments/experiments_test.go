package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/tpsim"
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

var update = flag.Bool("update", false, "rewrite "+digestFile+" from this run")

// digestFile pins every simulation's output: one "<id> <sha256>" line per
// registered experiment and per pinned loadsim run.
const digestFile = "testdata/digests.txt"

// pinnedRuns are cmd/loadsim's `-displace -controller pa -dur 300 -seed 7`
// runs with OCC and with -proto 2pl: displacement under both protocols at
// 800 terminals for 300 s, longer than any registered experiment runs at
// test scale.
var pinnedRuns = []struct {
	id    string
	proto tpsim.ProtocolKind
}{{"loadsim-displace-pa-occ", tpsim.OCC}, {"loadsim-displace-pa-2pl", tpsim.TwoPL}}

// Every registered experiment is a deterministic function of its Options,
// and its output is pinned: one run's outcome, metrics and CSV bytes must
// hash to the digest in digestFile. A nondeterministic run mismatches as
// surely as a changed simulation. Scale 0.03 is where every Options floor
// binds (40 s horizons, 1.2 s intervals, 3-point grids), the smallest runs
// the experiments have. Go may fuse multiply-adds on other architectures,
// so the digests hold on amd64 only; elsewhere each run is done twice and
// the two digests compared.
func TestDeterministicOutcomes(t *testing.T) {
	want := readDigests(t)
	var mu sync.Mutex
	got := map[string]string{}
	check := func(t *testing.T, id string, digest func() string) {
		t.Parallel()
		d := digest()
		mu.Lock()
		got[id] = d
		mu.Unlock()
		switch {
		case runtime.GOARCH != "amd64":
			if again := digest(); again != d {
				t.Fatalf("%s: output diverged between two runs", id)
			}
		case *update:
		case want[id] != d:
			t.Fatalf("%s: output digest %s, %s pins %q (rerun with -update if the change is intended)",
				id, d, digestFile, want[id])
		}
	}
	for _, e := range All {
		t.Run(e.ID, func(t *testing.T) {
			check(t, e.ID, func() string { return outcomeDigest(t, e) })
		})
	}
	for _, r := range pinnedRuns {
		t.Run(r.id, func(t *testing.T) {
			check(t, r.id, func() string { return loadsimDigest(r.proto) })
		})
	}
	if *update && runtime.GOARCH == "amd64" {
		// Cleanup runs once every parallel subtest has finished.
		t.Cleanup(func() { writeDigests(t, got) })
	}
}

// outcomeDigest runs e once and hashes its outcome, its metrics (%v prints
// map keys sorted and each float exactly) and every CSV it wrote.
func outcomeDigest(t *testing.T, e Experiment) string {
	out, files := runWithCSV(t, e)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%v\n", out, out.Metrics)
	for _, name := range slices.Sorted(maps.Keys(files)) {
		fmt.Fprintf(h, "%s %d\n", name, len(files[name]))
		h.Write(files[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadsimDigest runs cmd/loadsim's pinned configuration and hashes every
// series it prints, at exact floats, plus its summary line.
func loadsimDigest(proto tpsim.ProtocolKind) string {
	cfg := tpsim.DefaultConfig()
	cfg.Seed = 7
	cfg.Terminals = 800
	cfg.Duration = 300
	cfg.WarmUp = 0
	cfg.Displacement = true
	cfg.Protocol = proto
	cfg.Controller = core.NewPA(core.DefaultPAConfig())
	res := tpsim.New(cfg).Run()
	h := sha256.New()
	for _, s := range []telemetry.Series{res.Throughput, res.Load, res.Bound, res.Resp,
		res.ConflictRate, res.Util, res.Goodput, res.GateQueue} {
		fmt.Fprintf(h, "%s %v\n", s.Name, s.Points)
	}
	fmt.Fprintln(h, res.Summary())
	return hex.EncodeToString(h.Sum(nil))
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		if *update {
			return nil
		}
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, d, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[id] = d
	}
	return want
}

func writeDigests(t *testing.T, got map[string]string) {
	var b strings.Builder
	for _, id := range slices.Sorted(maps.Keys(got)) {
		fmt.Fprintf(&b, "%s %s\n", id, got[id])
	}
	if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
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
