package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// conns is C, the number of keep-alive connections (and of client worker
// goroutines) every phase drives the system with: min(nproc, 4). The whole
// load comes from this one process, so it never offers more concurrency
// than the box has cores; overload behaviour (n far above the core count)
// is out of scope here and covered by the repo's control-loop tests.
func conns() int {
	return min(runtime.NumCPU(), 4)
}

// kind is one request variant of a workload's mix.
type kind struct {
	query  string // raw query string of POST /txn
	weight int
}

// workload is one traffic mix over one process topology. Why each exists is
// in README.md and BENCHMARK.json.
type workload struct {
	name string
	// proxy puts loadctlproxy -policy threshold in front of two backends;
	// otherwise the harness talks to a single loadctld directly.
	proxy bool
	// server holds the loadctld flags beyond the common
	// -engine occ -items 4096 -seed 1.
	server []string
	kinds  []kind
	// rateLo and rateHi are the fixed open-loop rates in tx/s of the r25
	// and r50 phases: about 25 % and 50 % of the throughput this workload
	// typically sustains in sat on the authoring box (the median 250 ms
	// slice, not the best one), to two significant figures. They are
	// constants on purpose: deriving them from the run's own sat_tps would
	// let a slower build hide behind a lower offered load.
	rateLo, rateHi float64
}

const storeItems = 4096

// paNeverBinding keeps the paper's PA control loop live (it measures and
// re-estimates every interval) under a floor far above C, so admission
// always takes the uncontended AcquireFast path.
var paNeverBinding = []string{"-controller", "pa", "-lo", "64", "-hi", "1000"}

func workloads() []workload {
	return []workload{
		{
			// Per-request overhead is all of the time, kv none.
			name:   "direct-small",
			server: paNeverBinding,
			kinds:  []kind{{"shape=update&k=4", 1}},
			rateLo: 7600, rateHi: 15000,
		},
		{
			// kv is over half of the round trip; reads run beside writes.
			// k is sized for that on the authoring box: at k=512 the engine
			// is 30 % of the round trip, at 2048 it is 57 %.
			name: "direct-large",
			// A 2048-item updater beside another one fails certification
			// often; the default restart budget of 3 would surface some of
			// that as 409s, and this ledger wants wasted work as
			// kv.commit_ratio, not as failed requests.
			server: append([]string{"-maxretry", "64"}, paNeverBinding...),
			kinds: []kind{
				{"shape=query&k=2048", 1},
				{"shape=update&k=2048", 1},
			},
			rateLo: 760, rateHi: 1500,
		},
		{
			// The limit binds. k is sized so that the slot is held long
			// enough for the other connection to run into it: at k=64 only
			// 7 % of requests queue at the gate, at 1024 about half.
			name: "direct-gated",
			server: []string{"-classes", "standard", "-class-control", "pool",
				"-controller", "static", "-initial", strconv.Itoa(max(1, conns()-1))},
			kinds: []kind{
				{"class=interactive&k=1024", 3},
				{"class=readonly&k=1024", 2},
				{"class=batch&k=1024", 1},
			},
			rateLo: 1400, rateHi: 2800,
		},
		{
			// direct-small behind the proxy: pick, relay and a second hop.
			name:   "proxy-small",
			proxy:  true,
			server: paNeverBinding,
			kinds:  []kind{{"shape=update&k=4", 1}},
			rateLo: 1700, rateHi: 3400,
		},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// serverArgs is the full loadctld command line for w's backends.
func (w workload) serverArgs(addr string) []string {
	args := []string{"-addr", addr, "-engine", "occ", "-items", strconv.Itoa(storeItems), "-seed", "1"}
	return append(args, w.server...)
}

// backends is how many loadctld processes the topology has.
func (w workload) backends() int {
	if w.proxy {
		return 2
	}
	return 1
}
