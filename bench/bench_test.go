package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The traced run launches this executable as its servers; under go test
// that is the test binary, so it has to answer to the same sub-commands.
func TestMain(m *testing.M) {
	if tracedMain(os.Args[1:]) {
		return
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type summary struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestQuick runs the whole harness — build, launch, all timed phases, the
// traced run, probes, reconciliation — at -quick lengths on the simplest
// topology and on the proxied one, and holds what it prints to
// BENCHMARK.json: each mode reports exactly the metrics declared for it.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real servers")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range c.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloads() {
		if !declared[w.name] {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(declared) != len(workloads()) {
		t.Errorf("BENCHMARK.json declares %d workloads, the harness has %d", len(declared), len(workloads()))
	}

	for _, name := range []string{"direct-small", "proxy-small"} {
		for mode, want := range [][]struct{ Name, Unit string }{c.EndToEnd, c.PerLayer} {
			var out bytes.Buffer
			args := []string{"-quick", "-workload", name, "-trace", []string{"0", "1"}[mode]}
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, out.String())
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%v: correct %v, %d of %d failed\n%s", args, sum.Correct, sum.Failed, sum.Attempted, out.String())
			}
			for _, m := range want {
				got, ok := sum.Metrics[m.Name]
				if !ok {
					t.Errorf("%v: metric %s missing", args, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%v: metric %s in %q, BENCHMARK.json says %q", args, m.Name, got.Unit, m.Unit)
				}
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%v: %d metrics printed, %d declared", args, len(sum.Metrics), len(want))
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	// 1000 samples: p99 is rank 990, which leaves exactly ten beyond it.
	if v, q := tailQuantile(xs, 0.99); v != 990 || q != 0.99 {
		t.Errorf("p99 of 1..1000 = %d at %g, want 990 at 0.99", v, q)
	}
	// 200 samples cannot carry a p99: the highest percentile with ten
	// samples beyond it is rank 190.
	if v, q := tailQuantile(xs[:200], 0.99); v != 190 || q != 0.95 {
		t.Errorf("tail of 1..200 = %d at %g, want 190 at 0.95", v, q)
	}
	// Too few for any tail: the median.
	if v, _ := tailQuantile(xs[:15], 0.99); v != 8 {
		t.Errorf("tail of 1..15 = %d, want the median 8", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g; want 3.5, 31", q1, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 7, Name: spanClientRTT, Dur: 100},
		{ID: 7, Name: spanServerHandler, Parent: spanClientRTT, Dur: 40},
		{ID: 7, Name: spanGateQueue, Parent: spanServerHandler, Dur: 5},
		{ID: 7, Name: spanKVExec, Parent: spanServerHandler, Dur: 10, Detail: "aborted"},
		{ID: 7, Name: spanKVExec, Parent: spanServerHandler, Dur: 12, Detail: "committed"},
		{ID: 8, Name: spanServerHandler, Parent: spanClientRTT, Dur: 1}, // not wanted
	}
	reqs := joinSpans(map[uint64]bool{7: true}, spans)
	r := reqs[7]
	if len(reqs) != 1 || r == nil {
		t.Fatalf("joined %d requests, want only ID 7", len(reqs))
	}
	if got := r.self(spanClientRTT); got != 60 {
		t.Errorf("transport self = %d, want 100-40", got)
	}
	if got := r.self(spanServerHandler); got != 13 {
		t.Errorf("server self = %d, want 40-5-10-12", got)
	}
	if r.attempts != 2 || r.commits != 1 {
		t.Errorf("attempts %d commits %d, want 2 and 1", r.attempts, r.commits)
	}
}
