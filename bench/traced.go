package main

import (
	"context"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/tpctl/loadctl/internal/cluster"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
	mix "github.com/tpctl/loadctl/internal/workload"
)

// The traced mains. For the traced run the harness re-runs itself as
// "serve-traced" / "proxy-traced": the same wiring of internal/server and
// internal/cluster that cmd/loadctld and cmd/loadctlproxy do, plus spans
// recorded from outside the product code, around its public seams:
//
//	server.handler  http.Handler middleware around Server.Handler()
//	kv.exec         server.Engine decorator, one span per Exec attempt
//	gate.queue      the product's own reqtrace queue span, via
//	                Recorder.Dump() with SampleEvery 1 and a large ring
//	cluster.handler http.Handler middleware around Proxy.Handler()
//	cluster.relay   http.RoundTripper decorator around Config.Transport
//
// Spans of one request share the X-Loadctl-Trace ID the client minted.
// They stay in memory and are written out at SIGTERM.

// Span names. client.rtt is the root the harness itself records; the
// parent of server.handler depends on the topology and arrives as a flag.
const (
	spanClientRTT      = "client.rtt"
	spanClusterHandler = "cluster.handler"
	spanClusterRelay   = "cluster.relay"
	spanServerHandler  = "server.handler"
	spanGateQueue      = "gate.queue"
	spanKVExec         = "kv.exec"
)

// span is one recorded stage of one request.
type span struct {
	ID     uint64
	Name   string
	Parent string
	Start  int64 // Unix ns
	Dur    int64 // ns
	// Detail is the stage's outcome (committed/aborted, admitted, the HTTP
	// status); Label the transaction shape (kv.exec) or the admission class
	// (gate.queue).
	Detail string
	Label  string
}

// spanRingSize holds every request of a traced run (warm-up, a saturated
// phase and an open-loop phase at well under 20k tx/s) in the product's
// reqtrace ring, so no gate.queue span is overwritten before the dump.
const spanRingSize = 1 << 18

// spanLog collects spans in memory.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<18)} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	err = gob.NewEncoder(f).Encode(l.spans)
	l.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	if err := gob.NewDecoder(f).Decode(&spans); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// handlerSpans wraps a tier's handler in a span per traced /txn request.
func (l *spanLog) handlerSpans(name, parent string, next http.Handler, withExecs bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := reqtrace.FromRequest(r)
		if !ok || r.URL.Path != "/txn" {
			next.ServeHTTP(w, r)
			return
		}
		if withExecs {
			r = r.WithContext(context.WithValue(r.Context(), traceIDKey{}, id))
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		l.add(span{ID: id, Name: name, Parent: parent, Start: start.UnixNano(), Dur: int64(time.Since(start))})
	})
}

type traceIDKey struct{}

// tracedEngine records one kv.exec span per Exec attempt. The server hands
// Exec the request's context, which is how the attempt finds its trace ID.
type tracedEngine struct {
	server.Engine
	log *spanLog
}

func (e tracedEngine) Exec(ctx context.Context, spec server.TxnSpec) error {
	id, ok := ctx.Value(traceIDKey{}).(uint64)
	if !ok {
		return e.Engine.Exec(ctx, spec)
	}
	start := time.Now()
	err := e.Engine.Exec(ctx, spec)
	dur := int64(time.Since(start))
	s := span{ID: id, Name: spanKVExec, Parent: spanServerHandler, Start: start.UnixNano(), Dur: dur, Detail: "committed", Label: "query"}
	switch {
	case errors.Is(err, server.ErrAborted):
		s.Detail = "aborted"
	case err != nil:
		s.Detail = "error"
	}
	if spec.Update() {
		s.Label = "update"
	}
	e.log.add(s)
	return err
}

// tracedTransport records one cluster.relay span per forwarded /txn.
type tracedTransport struct {
	next http.RoundTripper
	log  *spanLog
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := reqtrace.FromRequest(req)
	if !ok {
		return t.next.RoundTrip(req) // the health loop's probes
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	s := span{ID: id, Name: spanClusterRelay, Parent: spanClusterHandler, Start: start.UnixNano(), Dur: int64(time.Since(start)), Detail: "error"}
	if err == nil {
		s.Detail = strconv.Itoa(resp.StatusCode)
	}
	t.log.add(s)
	return resp, err
}

// queueSpans converts the product's own queue spans, one per request in
// the recorder's ring, into gate.queue spans.
func queueSpans(rec *reqtrace.Recorder, log *spanLog) {
	for _, t := range rec.Dump().Ring {
		id, ok := reqtrace.ParseID(t.ID)
		if !ok {
			continue
		}
		for _, s := range t.Spans {
			if s.Name == reqtrace.SpanQueue {
				log.add(span{ID: id, Name: spanGateQueue, Parent: spanServerHandler,
					Start: t.StartUnixNanos + s.StartNanos, Dur: s.DurNanos, Detail: s.Detail, Label: t.Class})
			}
		}
	}
}

// serveUntilSignal serves h on addr until SIGTERM or SIGINT, then lets
// in-flight requests finish.
func serveUntilSignal(addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelShutdown()
		return hs.Shutdown(shutdownCtx)
	}
}

// serveTraced is cmd/loadctld's wiring (flags of the same names, the
// subset the workloads use) with the spans above.
func serveTraced(args []string) error {
	fs := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	var (
		spans        = fs.String("spans", "", "file the spans are written to at SIGTERM")
		parent       = fs.String("parent", spanClientRTT, "span that causes this tier's handler span")
		addr         = fs.String("addr", "", "listen address")
		controller   = fs.String("controller", "pa", "controller: pa or static")
		initial      = fs.Float64("initial", 0, "initial concurrency bound")
		lo           = fs.Float64("lo", 1, "lower clamp for the bound")
		hi           = fs.Float64("hi", 1000, "upper clamp for the bound")
		engine       = fs.String("engine", "occ", "concurrency control")
		classes      = fs.String("classes", "default", "'default' or 'standard'")
		classControl = fs.String("class-control", "pool", "what controllers steer")
		items        = fs.Int("items", 4096, "store size")
		maxRetry     = fs.Int("maxretry", 3, "restart budget per request")
		seed         = fs.Int64("seed", 1, "access-set sampling seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ctrl core.Controller
	switch *controller {
	case "pa":
		cfg := core.DefaultPAConfig()
		cfg.Bounds = core.Bounds{Lo: *lo, Hi: *hi}
		cfg.Initial = cfg.Bounds.Clamp(cfg.Initial)
		if *initial > 0 {
			cfg.Initial = *initial
		}
		ctrl = core.NewPA(cfg)
	case "static":
		ctrl = core.NewStatic(*initial)
	default:
		return fmt.Errorf("serve-traced: controller %q is not one the workloads use", *controller)
	}
	var classCfg []server.ClassConfig
	if *classes == "standard" {
		classCfg = server.DefaultClasses()
	}
	log := newSpanLog()
	store := kv.NewStoreShards(*items, 0)
	eng, err := server.NewEngine(*engine, store)
	if err != nil {
		return err
	}
	s, err := server.New(server.Config{
		Controller:      ctrl,
		Engine:          tracedEngine{eng, log},
		Items:           *items,
		Classes:         classCfg,
		ClassControl:    *classControl,
		ClassController: *controller,
		Mix:             mix.DefaultMix(),
		MaxRetry:        *maxRetry,
		ReqTrace:        reqtrace.Config{SampleEvery: 1, RingSize: spanRingSize},
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := serveUntilSignal(*addr, log.handlerSpans(spanServerHandler, *parent, s.Handler(), true)); err != nil {
		return err
	}
	queueSpans(s.Requests(), log)
	return log.write(*spans)
}

// proxyTraced is cmd/loadctlproxy's wiring with the spans above.
func proxyTraced(args []string) error {
	fs := flag.NewFlagSet("proxy-traced", flag.ContinueOnError)
	var (
		spans    = fs.String("spans", "", "file the spans are written to at SIGTERM")
		addr     = fs.String("addr", "", "listen address")
		backends = fs.String("backends", "", "comma-separated backend addresses")
		policy   = fs.String("policy", "threshold", "routing policy")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log := newSpanLog()
	p, err := cluster.New(cluster.Config{
		Backends: strings.Split(*backends, ","),
		Policy:   *policy,
		// The same transport cluster.Config defaults to, decorated.
		Transport: tracedTransport{&http.Transport{MaxIdleConnsPerHost: 256}, log},
	})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := serveUntilSignal(*addr, log.handlerSpans(spanClusterHandler, spanClientRTT, p.Handler(), false)); err != nil {
		return err
	}
	return log.write(*spans)
}
