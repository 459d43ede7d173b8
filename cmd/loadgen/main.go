// Loadgen drives a loadctld server with synthetic traffic over real TCP,
// replaying the paper's workload time courses as open-loop (Poisson) or
// closed-loop (think-time) load.
//
//	# sustained open-loop overload at 400 tx/s
//	go run ./cmd/loadgen -url http://127.0.0.1:8344 -mode open -rate 400
//
//	# the paper's jump experiment: 100 tx/s, jumping to 600 at t=15s
//	go run ./cmd/loadgen -mode open -rate 100 -jump-at 15 -jump-to 600 -dur 30s
//
//	# sinusoidal rate swinging 300±250 tx/s with a 60 s period
//	go run ./cmd/loadgen -mode open -rate 300 -sin-amp 250 -sin-period 60 -dur 2m
//
//	# closed loop: 128 terminals, 50 ms mean think time
//	go run ./cmd/loadgen -mode closed -clients 128 -think 50ms
//
//	# a builtin adversarial scenario (multi-class, phased)
//	go run ./cmd/loadgen -scenario retry-storm
//
//	# a scenario file (see DESIGN.md for the schema)
//	go run ./cmd/loadgen -scenario ./my-scenario.json
//
//	# list builtin scenarios
//	go run ./cmd/loadgen -list-scenarios
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/tpctl/loadctl/internal/loadgen"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/workload"
)

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:8344", "server base URL")
		addr      = flag.String("addr", "", "comma-separated target base URLs (host:port accepted): load is spread across all — e.g. a proxy plus backends, or the backends directly; overrides -url")
		scenario  = flag.String("scenario", "", "run a scenario: a builtin name or a JSON file path (overrides -mode et al.)")
		listScen  = flag.Bool("list-scenarios", false, "list builtin scenarios and exit")
		mode      = flag.String("mode", "open", "traffic model: open (Poisson) or closed (think time)")
		rate      = flag.Float64("rate", 200, "open-loop arrival rate, tx/s (base value)")
		jumpAt    = flag.Float64("jump-at", 0, "open loop: jump time in seconds (0 = no jump)")
		jumpTo    = flag.Float64("jump-to", 0, "open loop: rate after the jump")
		sinAmp    = flag.Float64("sin-amp", 0, "open loop: sinusoid amplitude around -rate (0 = none)")
		sinPeriod = flag.Float64("sin-period", 60, "open loop: sinusoid period in seconds")
		clients   = flag.Int("clients", 64, "closed-loop population size")
		think     = flag.Duration("think", 100*time.Millisecond, "closed-loop mean think time")
		dur       = flag.Duration("dur", 30*time.Second, "run duration")
		k         = flag.Float64("k", 8, "items accessed per transaction")
		queryFrac = flag.Float64("queryfrac", 0.25, "fraction of read-only queries")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		seed      = flag.Int64("seed", 1, "random seed")
		trace     = flag.Bool("trace", false, "mint an X-Loadctl-Trace ID per request (correlate with /debug/requests on proxy and backend)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()

	if *listScen {
		for _, n := range loadgen.BuiltinNames() {
			sc, _ := loadgen.Builtin(n)
			fmt.Printf("%-14s %s\n", n, sc.Notes)
		}
		return
	}
	urls := parseTargets(*addr, *url)
	if *scenario != "" {
		// Only an explicit -seed overrides the scenario file's own seed;
		// the flag's default of 1 must not clobber it.
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		runScenario(*scenario, urls, *seed, seedSet, *asJSON)
		return
	}

	cfg := loadgen.Config{
		URLs:     urls,
		Duration: *dur,
		Timeout:  *timeout,
		Seed:     *seed,
		Trace:    *trace,
		Clients:  *clients,
		Think:    sim.Exponential{Mu: think.Seconds()},
		Mix: workload.Mix{
			K:         workload.Constant{V: *k},
			QueryFrac: workload.Constant{V: *queryFrac},
			WriteFrac: workload.Constant{V: 0.5},
		},
	}
	switch *mode {
	case "open":
		cfg.Mode = loadgen.Open
		cfg.Rate = buildRate(*rate, *jumpAt, *jumpTo, *sinAmp, *sinPeriod)
	case "closed":
		cfg.Mode = loadgen.Closed
	default:
		log.Fatalf("loadgen: unknown mode %q (want open or closed)", *mode)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	targets := strings.Join(urls, ",")
	if cfg.Mode == loadgen.Open {
		fmt.Fprintf(os.Stderr, "loadgen: open loop against %s, rate %v for %s\n", targets, cfg.Rate, *dur)
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: closed loop against %s, %d clients, think %s for %s\n", targets, *clients, *think, *dur)
	}
	report, err := loadgen.Run(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println(report)
}

// parseTargets resolves the -addr list (comma-separated, scheme optional)
// or falls back to the single -url.
func parseTargets(addr, url string) []string {
	if addr == "" {
		return []string{url}
	}
	var urls []string
	for _, u := range strings.Split(addr, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		log.Fatal("loadgen: -addr contains no targets")
	}
	return urls
}

// runScenario resolves name as a builtin scenario or a file path, runs it
// and prints the report.
func runScenario(name string, urls []string, seed int64, seedSet, asJSON bool) {
	sc, err := loadgen.Builtin(name)
	if err != nil {
		data, readErr := os.ReadFile(name)
		if readErr != nil {
			log.Fatalf("loadgen: %q is neither a builtin scenario (%v) nor a readable file (%v)", name, err, readErr)
		}
		sc, err = loadgen.ParseScenario(data)
		if err != nil {
			log.Fatalf("loadgen: %s: %v", name, err)
		}
	}
	if seedSet {
		sc.Seed = seed
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	fmt.Fprintf(os.Stderr, "loadgen: scenario %q against %s, %d streams for %.0fs\n",
		sc.Name, strings.Join(urls, ","), len(sc.Streams), sc.DurationSeconds)
	// No actuator here: a scenario with cluster events needs a harness
	// that controls the backends (see the cluster integration test) and
	// is rejected with a clear error.
	rep, err := loadgen.RunScenario(ctx, sc, loadgen.ScenarioOptions{URLs: urls})
	if err != nil {
		log.Fatal(err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Println(rep)
}

// buildRate composes the arrival-rate schedule from the flags: a constant
// base, optionally replaced by a jump or modulated by a sinusoid.
func buildRate(base, jumpAt, jumpTo, sinAmp, sinPeriod float64) workload.Schedule {
	switch {
	case jumpAt > 0:
		return workload.Jump{At: jumpAt, Before: base, After: jumpTo}
	case sinAmp > 0:
		return workload.Clamp{
			S:  workload.Sinusoid{Mean: base, Amp: sinAmp, Period: sinPeriod},
			Lo: 0, Hi: base + sinAmp,
		}
	default:
		return workload.Constant{V: base}
	}
}
