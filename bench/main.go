// Bench is the repository's benchmark: it builds and launches the real
// cmd/loadctld and cmd/loadctlproxy, drives them over loopback TCP from
// this one process, and prints end-to-end metrics (what a client of the
// system sees) and a per-layer ledger (where each request's time went).
// See README.md beside this file.
//
//	go -C bench run .                          # all workloads, both modes
//	go -C bench run . --workload direct-small --seed 1 --seconds 20 --trace 0
//	go -C bench run . -workload proxy-small -trace 0 -repeat 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if tracedMain(os.Args[1:]) {
		return
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// tracedMain runs one of the traced mains when args name it: the harness
// launches its own executable as "serve-traced" or "proxy-traced" in place
// of loadctld and loadctlproxy for the traced run.
func tracedMain(args []string) bool {
	if len(args) == 0 {
		return false
	}
	var sub func([]string) error
	switch args[0] {
	case "serve-traced":
		sub = serveTraced
	case "proxy-traced":
		sub = proxyTraced
	default:
		return false
	}
	if err := sub(args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return true
}

// fingerprint is the machine and build a result came from: numbers from
// different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Conns      int    `json:"connections"`
}

func machine(root string) fingerprint {
	fp := fingerprint{
		CPU: "unknown", Kernel: "unknown", Commit: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Conns: conns(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// A checkout without .git (the benchmark driver's) has no commit to name.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

// report is the -out file.
type report struct {
	Machine fingerprint `json:"machine"`
	Seconds float64     `json:"seconds"`
	Results []*result   `json:"results"`
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all of them)")
		seed         = fs.Uint64("seed", 1, "seed of the arrival schedule and the request mix; the servers always get -seed 1")
		seconds      = fs.Float64("seconds", 20, "measured seconds per run, split over its timed phases")
		trace        = fs.Int("trace", -1, "0: end-to-end metrics on the real binaries; 1: per-layer metrics from the traced run; -1: both")
		repeat       = fs.Int("repeat", 1, "runs per workload and mode, on seeds seed, seed+1, …; prints median, quartiles and spread")
		quick        = fs.Bool("quick", false, "about one second per phase and a single set-up: a smoke test, not a measurement")
		out          = fs.String("out", "", "also write every result, with the machine fingerprint, to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace < -1 || *trace > 1 || *repeat < 1 || *seconds <= 0 {
		return fmt.Errorf("need -trace in -1..1, -repeat >= 1 and -seconds > 0")
	}
	o := opts{seconds: *seconds, setups: 3, warmup: 4000, probe: 200 * time.Millisecond}
	if *quick {
		o = opts{seconds: 3, setups: 1, warmup: 500, probe: 10 * time.Millisecond}
	}
	ws := workloads()
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		ws = []workload{w}
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	rep := report{Machine: machine(e.root), Seconds: o.seconds}
	fmt.Fprintf(stdout, "machine: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s; %d client connections\n",
		rep.Machine.CPU, rep.Machine.NumCPU, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, rep.Machine.Kernel, rep.Machine.Commit, rep.Machine.Conns)

	for _, w := range ws {
		for mode := 0; mode <= 1; mode++ {
			if *trace >= 0 && *trace != mode {
				continue
			}
			for i := 0; i < *repeat; i++ {
				o.seed = *seed + uint64(i)
				runOne := e.runEndToEnd
				if mode == 1 {
					runOne = e.runLayers
				}
				r, err := runOne(ctx, w, o)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				rep.Results = append(rep.Results, r)
				printResult(stdout, r)
			}
		}
	}
	if *repeat > 1 {
		printSpread(stdout, rep.Results)
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printSummary(stdout, rep.Results, len(ws) > 1)
}

func printResult(w io.Writer, r *result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d\n", r.Workload, mode, r.Seed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-34s %14d of %d attempted (fail_frac %.6f)\n", "failed", r.Failed, r.Attempted, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, n := range r.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	if r.Correct {
		fmt.Fprintln(w, "  checks: client tally, backend commits, proxy doors, committed bodies, no overrun — ok")
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  CHECK FAILED:", p)
	}
}

// series groups repeated runs' values by workload, mode and metric, in
// first-seen order.
type series struct {
	key    string
	unit   string
	values []float64
}

func collect(results []*result, prefix bool) []*series {
	var order []*series
	byKey := map[string]*series{}
	for _, r := range results {
		for _, m := range r.Metrics {
			key := m.Name
			if prefix {
				key = r.Workload + "/" + m.Name
			}
			s := byKey[key]
			if s == nil {
				s = &series{key: key, unit: m.Unit}
				byKey[key] = s
				order = append(order, s)
			}
			s.values = append(s.values, m.Value)
		}
	}
	return order
}

// printSpread is -repeat's table: per metric the median, the quartiles and
// their distance as a share of the median — the spread a bound must clear.
func printSpread(w io.Writer, results []*result) {
	fmt.Fprintf(w, "\n== spread over repeats\n%-52s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, s := range collect(results, true) {
		med := medianF(s.values)
		q1, q3 := quartiles(s.values)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-52s %14.4f %14.4f %14.4f %7.2f%%  %s\n", s.key, med, q1, q3, spread*100, s.unit)
	}
}

// printSummary writes the machine-readable last line: one JSON object with
// correct, attempted, failed and the metrics (medians over repeats).
func printSummary(w io.Writer, results []*result, prefix bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	for _, s := range collect(results, prefix) {
		sum.Metrics[s.key] = value{medianF(s.values), s.unit}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s\n", b)
	if !sum.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}
