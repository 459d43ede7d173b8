// Loadctlproxy fronts N loadctld backends with load-aware routing: each
// /txn request goes to a backend picked by the configured policy, backend
// saturation is learned passively from the X-Loadctl-Load header on
// forwarded responses plus an active /healthz check loop, and cluster-wide
// overload is propagated as fast 503s instead of queueing.
//
//	# three backends, self-tuning threshold routing
//	go run ./cmd/loadctld -addr :8344 &
//	go run ./cmd/loadctld -addr :8345 &
//	go run ./cmd/loadctld -addr :8346 &
//	go run ./cmd/loadctlproxy -addr :8080 \
//	    -backends 127.0.0.1:8344,127.0.0.1:8345,127.0.0.1:8346 \
//	    -policy threshold
//
// Then drive the proxy exactly like a single loadctld, and inspect the
// routing tier's own control loop (the threshold policy's θ decisions):
//
//	go run ./cmd/loadgen -url http://127.0.0.1:8080 -scenario flash-crowd
//	curl -s 'http://127.0.0.1:8080/metrics?format=json'
//	curl -s 'http://127.0.0.1:8080/controller?trace=1'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tpctl/loadctl/internal/cluster"
	"github.com/tpctl/loadctl/internal/debughttp"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "proxy listen address")
		backends    = flag.String("backends", "", "comma-separated backend base URLs (host:port accepted); required")
		policy      = flag.String("policy", "threshold", "routing policy: round-robin, least-inflight, threshold")
		healthInt   = flag.Duration("health-interval", 500*time.Millisecond, "active health-check period")
		tuneInt     = flag.Duration("tune-interval", 0, "control-loop period for policy self-tuning and the decision trace (0 = health-interval)")
		deadAfter   = flag.Int("dead-after", 2, "consecutive failed health checks before a backend is marked dead")
		traceSample = flag.Int("trace-sample", 0, "request-trace head-sampling period for /debug/requests: 1 in N requests (0 = default 1024, negative = tail capture only)")
		debugAddr   = flag.String("debug-addr", "", "debug listen address for /debug/pprof and /debug/requests (empty = off)")
	)
	flag.Parse()

	if *backends == "" {
		log.Fatal("loadctlproxy: -backends is required (comma-separated list)")
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	p, err := cluster.New(cluster.Config{
		Backends:       urls,
		Policy:         *policy,
		HealthInterval: *healthInt,
		TuneInterval:   *tuneInt,
		DeadAfter:      *deadAfter,
		ReqTrace:       reqtrace.Config{SampleEvery: *traceSample},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("loadctlproxy: listen %s: %v", *addr, err)
	}
	if *debugAddr != "" {
		dmux := debughttp.Mux()
		dmux.Handle("/debug/requests", p.Requests().Handler())
		dmux.Handle("/debug/incidents", p.Incidents().Handler())
		if err := debughttp.Serve(ctx, *debugAddr, dmux); err != nil {
			log.Fatalf("loadctlproxy: debug listen %s: %v", *debugAddr, err)
		}
	}
	fmt.Printf("loadctlproxy: routing on %s over %d backends (policy=%s health-interval=%s)\n",
		*addr, len(urls), p.PolicyName(), *healthInt)
	// POST /txn is answered by the proxy's own front door on the listener;
	// every other request goes to net/http.
	hs := &http.Server{Handler: p.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(p.FrontDoor(ln)) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelShutdown()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			log.Fatal(err)
		}
		// Shutdown does not know the front door's connections: idle ones
		// close now, and relays in flight answer with Connection: close
		// within what is left of the 5 s.
		if err := p.DrainConns(shutdownCtx); err != nil {
			log.Fatal(err)
		}
		fmt.Println("loadctlproxy: shut down")
	case err := <-errc:
		log.Fatal(err)
	}
}
