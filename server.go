package loadctl

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/debughttp"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
	"github.com/tpctl/loadctl/internal/workload"
)

// ClassConfig declares one admission class: its name, weighted share of
// the admission pool, shed priority, and optional default transaction
// shape. See server.ClassConfig for field documentation.
type ClassConfig = server.ClassConfig

// DefaultClasses is the canonical interactive / readonly / batch class
// split used by the binaries and the builtin scenarios.
func DefaultClasses() []ClassConfig { return server.DefaultClasses() }

// ServerConfig configures the network-facing transaction front-end: an
// HTTP server whose /txn endpoint runs each request through the adaptive
// multi-class admission gate and a concurrency-controlled in-memory
// store, with /metrics and /controller for observation and live
// controller switching.
type ServerConfig struct {
	// Addr is the listen address for Serve (default ":8344").
	Addr string
	// Controller re-estimates the concurrency limit; required for New.
	// Use NewPA(DefaultPAConfig()) for the paper's best-performing choice.
	Controller Controller
	// Engine selects concurrency control: "occ" (kv-native optimistic,
	// default), "cert" (the paper's timestamp certification), "2pl"
	// (strict two-phase locking, deadlock detection), or "wait-die".
	Engine string
	// Items is the store size D (default 4096; smaller = more contention).
	Items int
	// KVShards is the kv store's shard count: items are interleaved over
	// this many independently locked shards so the commit fast path takes
	// no store-wide lock. Rounded up to a power of two and clamped to
	// [1, 64]; 0 selects the automatic count (next power of two at or
	// above GOMAXPROCS). Use 1 for the unsharded baseline.
	KVShards int
	// GroupCommit routes the occ engine's commits through the kv store's
	// flat-combining group committer: concurrent commits coalesce into
	// batches that certify and apply under one ascending-order shard-lock
	// acquisition, amortizing lock traffic under multicore contention.
	// Certification semantics and per-class commit/abort accounting are
	// identical to direct commits; a lightly loaded or single-core server
	// pays a small per-commit overhead for no benefit, so it is opt-in.
	GroupCommit bool
	// Classes declares the admission classes (empty = one "default"
	// class, the single-gate behavior). Each class owns a weighted slice
	// of the admission pool and sheds in priority order under overload;
	// requests select a class with ?class=<name>.
	Classes []ClassConfig
	// ClassControl selects what the controllers steer: "pool" (default —
	// one controller moves the shared limit, weights split it), "perclass"
	// (one controller per class moves that class's limit), or "slo"
	// (per-class SLO controllers regulate each targeted class's interval
	// p95 response time to its ClassConfig.SLOTarget).
	ClassControl string
	// ClassController names the controller built per class in perclass
	// mode: "pa" (default), "is", "static", "none".
	ClassController string
	// Interval is the measurement interval Δt (default 1s).
	Interval time.Duration
	// MaxRetry bounds CC-abort restarts per request (0 = default of 3,
	// negative = no restarts).
	MaxRetry int
	// QueueTimeout bounds the admission wait before a request is shed
	// with 503 (default 5s).
	QueueTimeout time.Duration
	// Reject makes admission non-blocking: a full gate answers 429
	// immediately instead of queueing.
	Reject bool
	// DrainTimeout bounds the graceful shutdown drain: when Serve's
	// context ends, the server stops accepting, flips /healthz (and the
	// load signal) to "draining" so routing tiers take it out of rotation,
	// and waits up to DrainTimeout for in-flight transactions to finish
	// before closing their connections (default 10s; keep it above
	// QueueTimeout so queued admissions resolve rather than being cut).
	DrainTimeout time.Duration
	// TraceLen bounds the controller decision trace: every measurement
	// tick records the (sample, decision, new limit) triple it fed the
	// controller, and GET /controller?trace=1 exports the last TraceLen
	// of them for live inspection or offline replay (0 = default of 256).
	TraceLen int
	// TraceSample is the per-request trace head-sampling period: one in
	// TraceSample requests is captured end to end (spans for queue wait,
	// admission, execution attempts) in addition to the always-captured
	// shed/failed and slowest-N requests, all exported by
	// GET /debug/requests (0 = default of 1024; negative disables head
	// sampling; tail capture stays on).
	TraceSample int
	// DebugAddr, when non-empty, serves the operational debug surface on
	// its own listener: /debug/pprof/* (CPU/heap/block profiles under
	// load) and a second mount of /debug/requests. Serve binds it next to
	// the main listener; NewServer ignores it (embedders manage their own
	// listeners).
	DebugAddr string
	// Seed derives access-set sampling streams (0 = deterministic default).
	Seed int64
}

// Server is a running transaction front-end bound to an in-process store.
type Server struct {
	inner *server.Server
}

// NewServer builds the front-end without binding a listener; mount
// Handler on any mux or test server. Close releases the measurement loop.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Controller == nil {
		return nil, errors.New("loadctl: ServerConfig.Controller is required")
	}
	items := cfg.Items
	if items <= 0 {
		items = 4096
	}
	if cfg.KVShards < 0 {
		return nil, fmt.Errorf("loadctl: ServerConfig.KVShards %d < 0", cfg.KVShards)
	}
	store := kv.NewStoreShards(items, cfg.KVShards)
	if cfg.GroupCommit {
		store.EnableGroupCommit()
	}
	engine, err := server.NewEngine(cfg.Engine, store)
	if err != nil {
		return nil, err
	}
	inner, err := server.New(server.Config{
		Controller:      cfg.Controller,
		Engine:          engine,
		Items:           items,
		Classes:         cfg.Classes,
		ClassControl:    cfg.ClassControl,
		ClassController: cfg.ClassController,
		Interval:        cfg.Interval,
		Mix:             workload.DefaultMix(),
		MaxRetry:        cfg.MaxRetry,
		QueueTimeout:    cfg.QueueTimeout,
		Reject:          cfg.Reject,
		TraceLen:        cfg.TraceLen,
		ReqTrace:        reqtrace.Config{SampleEvery: cfg.TraceSample},
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Handler returns the HTTP handler serving /txn, /metrics, /controller
// and /healthz.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Limit returns the currently installed concurrency bound n*.
func (s *Server) Limit() float64 { return s.inner.Limit() }

// Close stops the measurement loop and severs the front door's
// keep-alive connections, proxies' included (see internal/link).
func (s *Server) Close() { s.inner.Close() }

// BeginDrain marks the server as draining: /healthz answers 503 and the
// X-Loadctl-Load signal tells routing tiers to stop sending new work
// while in-flight transactions keep running. Serve calls this
// automatically when its context ends; embedders doing their own listener
// management call it before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.inner.BeginDrain() }

// Serve runs the transaction front-end on cfg.Addr until ctx is
// cancelled, then shuts down gracefully: it stops accepting, advertises
// "draining" on /healthz and the load signal, drains in-flight
// transactions for up to cfg.DrainTimeout, and returns nil on a clean
// drain — so a SIGTERM'd loadctld exits 0 and a fronting proxy can tell
// the drain from a crash. It supplies a PA controller when cfg.Controller
// is nil, making loadctl.Serve(ctx, loadctl.ServerConfig{}) a complete
// adaptive transaction server.
//
// POST /txn over HTTP/1.1 is answered by the server's own front door on
// the listener (see internal/server's FrontDoor); every other request goes
// to net/http, which serves Handler. Embedders of Handler get the same
// answers from net/http alone.
func Serve(ctx context.Context, cfg ServerConfig) error {
	if cfg.Addr == "" {
		cfg.Addr = ":8344"
	}
	if cfg.Controller == nil {
		cfg.Controller = core.NewPA(core.DefaultPAConfig())
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	s, err := NewServer(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("loadctl: listen %s: %w", cfg.Addr, err)
	}
	if cfg.DebugAddr != "" {
		// The debug surface (pprof + request traces) gets its own
		// listener so profiling under load never rides the data path.
		dmux := debughttp.Mux()
		dmux.Handle("/debug/requests", s.inner.Requests().Handler())
		dmux.Handle("/debug/incidents", s.inner.Incidents().Handler())
		if err := debughttp.Serve(ctx, cfg.DebugAddr, dmux); err != nil {
			return fmt.Errorf("loadctl: debug listen %s: %w", cfg.DebugAddr, err)
		}
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(s.inner.FrontDoor(ln)) }()
	select {
	case <-ctx.Done():
		// Drain, don't drop. First a lame-duck window: keep accepting
		// while /healthz answers 503 "draining", so routing tiers observe
		// the drain and take this backend out of rotation — closing the
		// listener immediately would make a graceful drain look exactly
		// like a crash (connection refused) to their health checks.
		s.BeginDrain()
		announce := cfg.DrainTimeout / 4
		if announce > time.Second {
			announce = time.Second
		}
		select {
		case <-time.After(announce):
		case err := <-errc:
			return err
		}
		// Then stop accepting; queued and in-flight requests get the rest
		// of DrainTimeout to resolve (admission waits included — they
		// answer within QueueTimeout), and only then are the stragglers'
		// connections closed.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout-announce)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		// Shutdown does not know the front door's connections, proxies'
		// included (net/http never saw them): give their in-flight
		// transactions what is left of the drain, then close them.
		return s.inner.DrainConns(shutdownCtx)
	case err := <-errc:
		return err
	}
}
