// Benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON array on stdout, so CI can archive benchmark
// results as an artifact and the performance trajectory is diffable
// across PRs:
//
//	go test -run '^$' -bench . -benchtime 200ms ./internal/server/ | \
//	    go run ./cmd/benchjson > BENCH.json
//
// Each element records the benchmark name (with the -cpu suffix), the
// iteration count, ns/op, and — when the benchmark reports allocations —
// B/op and allocs/op. Non-benchmark lines (PASS, ok, goos/goarch headers)
// are skipped; pkg headers annotate the following benchmarks.
//
// With -max-allocs N the tool doubles as a CI regression gate: after
// emitting the JSON it exits 1 if any benchmark matched by -match reports
// more than N allocs/op — the check that keeps the request hot path at its
// audited allocation count (a time/op gate would flake on shared CI
// hardware; an allocation count is exact and machine-independent).
//
// With -baseline FILE the current run is diffed against a committed
// benchjson output (e.g. BENCH_PR10.json): a benchmark whose (package,
// name) pair appears in the baseline fails the gate if its ns/op exceeds
// the baseline by more than -max-regress (a fractional tolerance, default
// 0.15, absorbing shared-runner jitter) or if its allocs/op rose at all
// (allocation counts are deterministic, so any increase is a real
// regression). Benchmarks absent from the baseline pass freely — new
// benchmarks land before their baseline does — but a baseline that
// matches nothing in the current run means the suite was renamed out from
// under the gate, and that exits 1 rather than green-lighting the typo.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// reportsAllocs tells a measured 0 allocs/op from no measurement.
	reportsAllocs bool
}

func main() {
	maxAllocs := flag.Int64("max-allocs", -1, "exit 1 if a matched benchmark exceeds this many allocs/op (-1 = no gate)")
	match := flag.String("match", "", "substring of benchmark names the -max-allocs gate applies to (empty = every benchmark reporting allocations)")
	baseline := flag.String("baseline", "", "committed benchjson JSON to diff against; exit 1 on ns/op or allocs/op regression")
	maxRegress := flag.Float64("max-regress", 0.15, "fractional ns/op regression tolerated against -baseline (allocs/op tolerates none)")
	flag.Parse()

	var results []Result
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  1234  5678 ns/op [ 90 B/op  3 allocs/op ]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		nsop, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		r := Result{Package: pkg, Name: fields[0], Iterations: iters, NsPerOp: nsop}
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
				r.reportsAllocs = true
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if !diffBaseline(results, *baseline, *maxRegress) {
			os.Exit(1)
		}
	}
	if *maxAllocs >= 0 {
		gated, failed := 0, false
		for _, r := range results {
			if *match != "" && !strings.Contains(r.Name, *match) {
				continue
			}
			if !r.reportsAllocs {
				continue
			}
			gated++
			if r.AllocsPerOp > *maxAllocs {
				failed = true
				fmt.Fprintf(os.Stderr, "benchjson: %s: %d allocs/op exceeds the gate of %d\n",
					r.Name, r.AllocsPerOp, *maxAllocs)
			}
		}
		if gated == 0 {
			// A gate that matched nothing is a misconfigured gate, not a
			// pass: fail loudly instead of green-lighting a typo.
			fmt.Fprintf(os.Stderr, "benchjson: -max-allocs gate matched no benchmark (match %q)\n", *match)
			os.Exit(1)
		}
		if failed {
			os.Exit(1)
		}
	}
}

// diffBaseline compares the current results against the committed
// baseline file and reports whether the run passes: every benchmark with
// a baseline entry must stay within maxRegress of its ns/op and must not
// allocate more per op. Zero matched benchmarks is itself a failure.
func diffBaseline(results []Result, path string, maxRegress float64) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: baseline:", err)
		return false
	}
	var base []Result
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s: %v\n", path, err)
		return false
	}
	index := make(map[string]Result, len(base))
	for _, b := range base {
		index[b.Package+"\x00"+b.Name] = b
	}
	matched, ok := 0, true
	for _, r := range results {
		b, found := index[r.Package+"\x00"+r.Name]
		if !found {
			continue
		}
		matched++
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+maxRegress) {
			ok = false
			fmt.Fprintf(os.Stderr, "benchjson: %s: %.0f ns/op vs baseline %.0f (+%.0f%% > %.0f%% tolerance)\n",
				r.Name, r.NsPerOp, b.NsPerOp, 100*(r.NsPerOp/b.NsPerOp-1), 100*maxRegress)
		}
		if r.AllocsPerOp > b.AllocsPerOp {
			ok = false
			fmt.Fprintf(os.Stderr, "benchjson: %s: %d allocs/op vs baseline %d — allocation regressions have no tolerance\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s matched no benchmark in this run — renamed suite or wrong file\n", path)
		return false
	}
	return ok
}
