// Loadctld serves adaptive-load-controlled transactions over HTTP: the
// paper's feedback loop (measure → re-estimate n* → gate admissions)
// wrapped around an in-memory transactional store and exposed to real
// network clients.
//
//	go run ./cmd/loadctld -addr :8344 -controller pa
//
//	# multi-class admission: the canonical interactive/readonly/batch
//	# split, one adaptive controller per class
//	go run ./cmd/loadctld -classes standard -class-control perclass
//
//	# custom classes: name:weight:priority[:shape[:k]]
//	go run ./cmd/loadctld -classes 'web:4:0,analytics:1:2:query:64'
//
// Then drive it with cmd/loadgen and watch /metrics and the controller's
// decision trace:
//
//	go run ./cmd/loadgen -url http://127.0.0.1:8344 -scenario retry-storm
//	curl -s 'http://127.0.0.1:8344/metrics?format=json'
//	curl -s 'http://127.0.0.1:8344/controller?trace=1'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tpctl/loadctl"
)

func main() {
	var (
		addr         = flag.String("addr", ":8344", "listen address")
		controller   = flag.String("controller", "pa", "controller: pa, is, static, none")
		initial      = flag.Float64("initial", 0, "initial concurrency bound (0 = controller default)")
		lo           = flag.Float64("lo", 1, "lower static clamp for the bound")
		hi           = flag.Float64("hi", 1000, "upper static clamp for the bound")
		engine       = flag.String("engine", "occ", "concurrency control: occ (kv's optimistic certification, the only engine)")
		classes      = flag.String("classes", "default", "admission classes: 'default' (single gate), 'standard' (interactive/readonly/batch), or 'name:weight:priority[:shape[:k]],...'")
		classControl = flag.String("class-control", "pool", "what controllers steer: pool (shared limit split by weight), perclass (one controller per class), or slo (regulate per-class p95 to -slo-targets)")
		sloTargets   = flag.String("slo-targets", "", "per-class p95 targets in seconds for -class-control slo: 'class:seconds,...' (e.g. 'interactive:0.05,batch:2')")
		items        = flag.Int("items", 4096, "store size D (smaller = more contention)")
		interval     = flag.Duration("interval", time.Second, "measurement interval")
		maxRetry     = flag.Int("maxretry", 3, "restart budget per request on CC abort (-1 = no restarts)")
		queueTimeout = flag.Duration("queue-timeout", 5*time.Second, "max admission wait before shedding (503)")
		reject       = flag.Bool("reject", false, "non-blocking admission: full gate answers 429")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: max wait for in-flight transactions after SIGTERM")
		traceLen     = flag.Int("trace-len", 0, "controller decision-trace ring size for /controller?trace=1 (0 = default)")
		traceSample  = flag.Int("trace-sample", 0, "request-trace head-sampling period for /debug/requests: 1 in N requests (0 = default 1024, negative = tail capture only)")
		debugAddr    = flag.String("debug-addr", "", "debug listen address for /debug/pprof and /debug/requests (empty = off)")
		seed         = flag.Int64("seed", 1, "access-set sampling seed")
	)
	flag.Parse()

	if *engine != "occ" {
		log.Fatalf("loadctld: unknown -engine %q (occ is the only engine)", *engine)
	}
	ctrl, err := buildController(*controller, *initial, *lo, *hi)
	if err != nil {
		log.Fatal(err)
	}
	classCfg, err := parseClasses(*classes)
	if err != nil {
		log.Fatal(err)
	}
	classCfg, err = applySLOTargets(classCfg, *sloTargets)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	names := make([]string, len(classCfg))
	for i, c := range classCfg {
		names[i] = c.Name
	}
	fmt.Printf("loadctld: serving on %s (controller=%s engine=%s items=%d interval=%s classes=%s control=%s)\n",
		*addr, ctrl.Name(), *engine, *items, *interval, strings.Join(names, ","), *classControl)
	err = loadctl.Serve(ctx, loadctl.ServerConfig{
		Addr:            *addr,
		Controller:      ctrl,
		Items:           *items,
		Classes:         classCfg,
		ClassControl:    *classControl,
		ClassController: *controller,
		Interval:        *interval,
		MaxRetry:        *maxRetry,
		QueueTimeout:    *queueTimeout,
		Reject:          *reject,
		DrainTimeout:    *drainTimeout,
		TraceLen:        *traceLen,
		TraceSample:     *traceSample,
		DebugAddr:       *debugAddr,
		Seed:            *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	// A clean drain (SIGTERM/SIGINT → stop accepting → in-flight work
	// finished) exits 0, so orchestrators and the proxy's kill/restart
	// scenarios can tell a drain from a crash.
	fmt.Println("loadctld: drained, exiting")
}

// parseClasses resolves the -classes flag: the "default"/"standard"
// shorthands or a comma-separated list of name:weight:priority[:shape[:k]].
func parseClasses(spec string) ([]loadctl.ClassConfig, error) {
	switch spec {
	case "", "default":
		return nil, nil // single-gate behavior
	case "standard":
		return loadctl.DefaultClasses(), nil
	}
	var out []loadctl.ClassConfig
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 || len(fields) > 5 {
			return nil, fmt.Errorf("loadctld: -classes entry %q: want name:weight:priority[:shape[:k]]", part)
		}
		cc := loadctl.ClassConfig{Name: fields[0]}
		var err error
		if cc.Weight, err = strconv.ParseFloat(fields[1], 64); err != nil {
			return nil, fmt.Errorf("loadctld: -classes entry %q: bad weight: %w", part, err)
		}
		if cc.Priority, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("loadctld: -classes entry %q: bad priority: %w", part, err)
		}
		if len(fields) > 3 {
			cc.Shape = fields[3]
		}
		if len(fields) > 4 {
			if cc.K, err = strconv.Atoi(fields[4]); err != nil {
				return nil, fmt.Errorf("loadctld: -classes entry %q: bad k: %w", part, err)
			}
		}
		out = append(out, cc)
	}
	return out, nil
}

// applySLOTargets resolves the -slo-targets flag ('class:seconds,...')
// onto the class set. With the single-gate default class set it
// materializes the implicit "default" class so the target has somewhere
// to live.
func applySLOTargets(classes []loadctl.ClassConfig, spec string) ([]loadctl.ClassConfig, error) {
	if spec == "" {
		return classes, nil
	}
	if classes == nil {
		classes = []loadctl.ClassConfig{{Name: "default", Weight: 1}}
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("loadctld: -slo-targets entry %q: want class:seconds", part)
		}
		target, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("loadctld: -slo-targets entry %q: bad seconds: %w", part, err)
		}
		found := false
		for i := range classes {
			if classes[i].Name == name {
				classes[i].SLOTarget = target
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("loadctld: -slo-targets names unknown class %q", name)
		}
	}
	return classes, nil
}

func buildController(name string, initial, lo, hi float64) (loadctl.Controller, error) {
	bounds := loadctl.Bounds{Lo: lo, Hi: hi}
	if err := bounds.Validate(); err != nil {
		return nil, fmt.Errorf("loadctld: -lo/-hi: %w", err)
	}
	if initial != 0 && (initial < lo || initial > hi) {
		return nil, fmt.Errorf("loadctld: -initial %g outside [-lo %g, -hi %g]", initial, lo, hi)
	}
	switch name {
	case "pa":
		cfg := loadctl.DefaultPAConfig()
		cfg.Bounds = bounds
		if initial > 0 {
			cfg.Initial = initial
		} else {
			cfg.Initial = bounds.Clamp(cfg.Initial)
		}
		return loadctl.NewPA(cfg), nil
	case "is":
		cfg := loadctl.DefaultISConfig()
		cfg.Bounds = bounds
		if initial > 0 {
			cfg.Initial = initial
		} else {
			cfg.Initial = bounds.Clamp(cfg.Initial)
		}
		return loadctl.NewIS(cfg), nil
	case "static":
		if initial <= 0 {
			return nil, fmt.Errorf("loadctld: -controller static needs -initial > 0")
		}
		return loadctl.NewStatic(initial), nil
	case "none":
		return loadctl.NoControl(), nil
	default:
		return nil, fmt.Errorf("loadctld: unknown controller %q (want pa, is, static, none)", name)
	}
}
