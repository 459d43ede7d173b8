// Package server is the network-facing transaction front-end of the
// repository: it turns the adaptive admission control of Heiss & Wagner
// from a simulator-only mechanism into a live service. Every HTTP request
// to /txn passes through the adaptive gate (an admission slot acquired
// before, released after the transaction), executes a read-only query or a
// read-modify-write update against the in-process kv store under a
// pluggable concurrency-control engine, and feeds the measurement loop
// that periodically re-estimates the throughput-optimal multiprogramming
// limit n* and installs it at the gate.
//
// Admission is multi-class: requests carry an admission class (interactive
// / readonly / batch in the default set, fully configurable), each class
// owns a slice of the shared concurrency pool in proportion to its weight,
// and under overload surplus demand is shed in strict priority order — the
// paper's per-class load control in front of real network traffic. The
// adaptive controllers steer either the global pool (one controller, the
// weights split its limit) or per-class limits (one controller per class).
//
// Endpoints:
//
//	POST /txn        execute one transaction (class/shape/k/base/span via
//	                 query or JSON body)
//	GET  /metrics    Prometheus-style text; ?format=json for a JSON snapshot
//	GET  /controller controller inspection; ?trace=1 adds the recorded
//	                 decision trace; POST switches controllers live
//	                 (scope: pool, perclass, or a single class)
//	GET  /healthz    machine-readable load signal (JSON); 503 while
//	                 draining — the cluster tier's active health check
//	GET  /debug/requests  captured per-request traces: head-sampled,
//	                 shed/failed, and slowest-N requests with per-stage
//	                 spans (see internal/reqtrace); ?class= and ?outcome=
//	                 filter the retained set
//	GET  /debug/incidents overload incidents with their flight-recorder
//	                 bundles and the raw event-edge ring (see internal/obs)
//
// The package is deliberately thin: it wires the shared layers together.
// internal/telemetry owns the striped hot-path counters, latency
// histograms, load integrator and the Prometheus+JSON dual exporter
// (measure.go); internal/ctl owns the sense→decide→actuate loop and its
// decision trace (control.go); transport.go holds the /txn path and its
// net/http adapter, frontdoor.go the hand-served HTTP/1.1 door
// loadctl.Serve puts in front of net/http — the door proxies reach over
// internal/link; this file holds configuration and lifecycle.
//
// The request hot path never takes the server-wide mutex: every
// per-request counter lives in striped, cache-line-padded atomic cells
// selected per request within the request's class. The measurement tick
// and /metrics fold the stripes; the server-wide mutex guards only
// controller state and interval history. The remaining per-request shared
// state is the request-sequence atomic and the admission gate's own mutex.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/obs"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/workload"
)

// Config parameterizes the transaction front-end.
type Config struct {
	// Controller re-estimates the shared concurrency pool; required. In
	// the per-class modes its bound seeds the class limits (their weighted
	// shares of the pool).
	Controller core.Controller
	// Engine executes transactions; required.
	Engine Engine
	// Items is the store size D used to sample access sets; required (>0).
	Items int
	// Classes declares the admission classes. Empty means one class
	// "default" — the single-gate behavior. Use DefaultClasses() for the
	// canonical interactive/readonly/batch split.
	Classes []ClassConfig
	// ClassControl selects what the adaptive controllers steer: "pool"
	// (default; Controller moves the shared limit, weights split it),
	// "perclass" (one controller per class moves that class's own limit),
	// or "slo" (per-class SLO controllers regulate each targeted class's
	// interval p95 to its ClassConfig.SLOTarget; untargeted classes hold a
	// static limit at their seed share).
	ClassControl string
	// ClassController names the controller built per class in perclass
	// mode: "pa" (default), "is", "static", "none".
	ClassController string
	// Interval is the measurement interval Δt (default 1s).
	Interval time.Duration
	// Mix supplies defaults for transaction shape when a request does not
	// specify class/k (default workload.DefaultMix()). Schedules are
	// evaluated at seconds-since-start, so the simulator's time-varying
	// workloads replay against the live server.
	Mix workload.Mix
	// MaxRetry bounds restart attempts per request after CC aborts; the
	// terminal abort surfaces as HTTP 409. Zero means the default of 3;
	// negative disables restarts entirely (the no-retry baseline).
	MaxRetry int
	// QueueTimeout bounds how long a request may wait for admission before
	// it is shed with HTTP 503 (default 5s).
	QueueTimeout time.Duration
	// Reject switches admission from blocking (queue at the gate) to
	// non-blocking: a full gate immediately answers HTTP 429.
	Reject bool
	// HistoryLen is how many closed measurement intervals /metrics keeps
	// (default 300).
	HistoryLen int
	// TraceLen bounds the controller decision trace exported by
	// GET /controller?trace=1 (default ctl.DefaultTraceLen).
	TraceLen int
	// ReqTrace parameterizes per-request tracing (head-sampling period,
	// capture ring size, slow-tail depth — see reqtrace.Config). The Tier
	// field is overridden to "server". The zero value gives the defaults:
	// 1/1024 head sampling, ring 256, slowest 16.
	ReqTrace reqtrace.Config
	// Seed derives the per-request access-set sampling streams.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxRetry == 0 {
		c.MaxRetry = 3
	} else if c.MaxRetry < 0 {
		c.MaxRetry = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 300
	}
	if c.Mix.K == nil {
		c.Mix = workload.DefaultMix()
	}
	if len(c.Classes) == 0 {
		c.Classes = singleClass()
	}
	if c.ClassControl == "" {
		c.ClassControl = "pool"
	}
	if c.ClassController == "" {
		c.ClassController = "pa"
	}
	return c
}

// Server is the transaction front-end. Create with New, serve its
// Handler, and Close it to stop the measurement loop.
type Server struct {
	cfg     Config
	classes []ClassConfig
	multi   *gate.Multi
	mux     *http.ServeMux
	start   time.Time

	seq atomic.Uint64 // per-request stream ids; also selects the stripe

	// Load-signal state for the cluster routing tier. draining flips once
	// on BeginDrain; shedMask holds one bit per class that shed load
	// (timeouts or rejections) during the last closed interval; the
	// rendered signal is cached and refreshed at most every signalTTL so
	// attaching it to every response stays off the gate's mutex.
	draining atomic.Bool
	shedMask atomic.Uint64
	sigCache atomic.Pointer[cachedSignal]
	sigStamp atomic.Int64 // nanos since start of the last refresh

	// tel holds the striped hot-path counters, one group per class;
	// hists the per-class commit latency histograms; rec the per-request
	// trace recorder behind GET /debug/requests.
	tel   *telemetry.Counters
	hists []telemetry.Histogram
	rec   *reqtrace.Recorder

	// Overload observability (internal/obs): obsRing is the raw event-edge
	// ring, det the hysteresis detector, obsRec the flight recorder behind
	// GET /debug/incidents, runtime the tick-cadence Go runtime sampler,
	// limitMax the installed limit's trailing maximum (the limit-collapse
	// reference), decisionHist the trailing controller-decision window
	// incident bundles carry. det, limitMax and decisionHist belong to the
	// tick goroutine exclusively; obsRec and runtime are internally
	// synchronized.
	obsRing      *obs.Ring
	det          *obs.Detector
	obsRec       *obs.Recorder
	runtime      *telemetry.RuntimeSampler
	limitMax     *obs.TrailingMax
	decisionHist []ctl.Decision

	mu           sync.Mutex
	ctrl         core.Controller   // steers the shared pool in pool mode
	classCtrls   []core.Controller // steer per-class limits in perclass mode
	mode         string            // modePool, modePerClass or modeSLO
	updates      uint64            // pool controller Update calls
	classUpdates []uint64          // per-class controller Update calls
	lastTick     time.Time         // previous interval boundary (for the true Δt)
	prevFold     []telemetry.Fold
	prevHist     []telemetry.HistCounts // histogram snapshots at the last tick
	last         IntervalStats
	lastClass    []IntervalStats
	history      []IntervalStats
	lastSamp     core.Sample
	lastClassSmp []core.Sample

	// sloTargeted/sloAttained count, per class, the closed intervals where
	// the class had an SLO target and response samples, and the subset
	// whose interval p95 met the target — the attainment ratio exported by
	// GET /controller (under mu).
	sloTargeted []uint64
	sloAttained []uint64

	loop *ctl.Loop // the sense→decide→actuate cycle; owns the trace

	// door serves POST /txn at the listener (frontdoor.go) and holds the
	// connections net/http never sees.
	door *link.Door
}

// New validates cfg, starts the measurement loop and returns the server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Controller == nil {
		return nil, errors.New("server: Config.Controller is required")
	}
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.Items < 1 {
		return nil, fmt.Errorf("server: Config.Items %d < 1", cfg.Items)
	}
	switch cfg.ClassControl {
	case "pool", "perclass", "slo":
	default:
		return nil, fmt.Errorf("server: unknown ClassControl %q (want pool, perclass or slo)", cfg.ClassControl)
	}
	if len(cfg.Classes) > kv.MaxTxnClasses {
		// The store's per-class conflict counters clamp indexes beyond
		// this into class 0; refuse rather than silently merge classes.
		return nil, fmt.Errorf("server: %d classes exceed the per-class accounting limit %d", len(cfg.Classes), kv.MaxTxnClasses)
	}
	seen := make(map[string]bool, len(cfg.Classes))
	for _, cc := range cfg.Classes {
		if err := cc.validate(); err != nil {
			return nil, err
		}
		if seen[cc.Name] {
			return nil, fmt.Errorf("server: duplicate class %q", cc.Name)
		}
		seen[cc.Name] = true
	}
	multi, err := gate.NewMulti(gateSpecs(cfg.Classes), cfg.Controller.Bound())
	if err != nil {
		return nil, err
	}
	cfg.ReqTrace.Tier = "server"
	classNames := make([]string, len(cfg.Classes))
	for i, cc := range cfg.Classes {
		classNames[i] = cc.Name
	}
	// The class vocabulary is closed on the server, so the trace handler
	// can 400 on ?class= filters naming unknown classes.
	cfg.ReqTrace.Classes = classNames
	s := &Server{
		cfg:          cfg,
		classes:      cfg.Classes,
		multi:        multi,
		ctrl:         cfg.Controller,
		mode:         modePool,
		start:        time.Now(),
		rec:          reqtrace.New(cfg.ReqTrace),
		tel:          telemetry.NewCounters(len(cfg.Classes), counterSchema...),
		hists:        make([]telemetry.Histogram, len(cfg.Classes)),
		classCtrls:   make([]core.Controller, len(cfg.Classes)),
		classUpdates: make([]uint64, len(cfg.Classes)),
		prevFold:     make([]telemetry.Fold, len(cfg.Classes)),
		prevHist:     make([]telemetry.HistCounts, len(cfg.Classes)),
		lastClass:    make([]IntervalStats, len(cfg.Classes)),
		lastClassSmp: make([]core.Sample, len(cfg.Classes)),
		sloTargeted:  make([]uint64, len(cfg.Classes)),
		sloAttained:  make([]uint64, len(cfg.Classes)),
	}
	s.obsRing = obs.NewRing(obs.DefaultRingSize)
	s.det = obs.NewDetector(s.obsRing)
	s.obsRec = obs.NewRecorder("server", obs.DefaultMaxIncidents, s.elapsed, s.obsRing)
	s.runtime = telemetry.NewRuntimeSampler()
	s.limitMax = obs.NewTrailingMax(obs.DefaultTrailingWindow)
	for ci := range s.prevFold {
		s.prevFold[ci] = make(telemetry.Fold, len(counterSchema))
	}
	switch cfg.ClassControl {
	case modePerClass:
		if err := s.installClassCtrlsLocked(modePerClass, s.perClassBuilder(cfg.ClassController, core.DefaultBounds(), 0)); err != nil {
			return nil, err
		}
	case modeSLO:
		targets := make([]float64, len(cfg.Classes))
		for ci, cc := range cfg.Classes {
			targets[ci] = cc.SLOTarget
		}
		if err := s.enterSLOLocked(targets, core.DefaultBounds()); err != nil {
			return nil, err
		}
	}
	s.lastTick = s.start
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/txn", s.handleTxn)
	s.door = link.NewDoor("server", s.serveDoor)
	s.mux.Handle("/metrics", telemetry.MetricsEndpoint{
		Snapshot:  func(withHistory bool) any { return jsonSnapshot(s.SnapshotNow(withHistory)) },
		Prom:      func() *telemetry.PromText { return renderProm(s.SnapshotNow(false)) },
		HistoryOK: true,
	})
	s.mux.HandleFunc("/controller", s.handleController)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/debug/requests", s.rec.Handler())
	s.mux.Handle("/debug/incidents", s.obsRec.Handler())
	s.loop = ctl.Start(ctl.Config{
		Interval: cfg.Interval,
		Tick:     s.tick,
		TraceLen: cfg.TraceLen,
	})
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Requests returns the per-request trace recorder (the state behind
// GET /debug/requests), for embedders mounting it on a debug listener.
func (s *Server) Requests() *reqtrace.Recorder { return s.rec }

// Incidents returns the overload flight recorder (the state behind
// GET /debug/incidents), for embedders mounting it on a debug listener.
func (s *Server) Incidents() *obs.Recorder { return s.obsRec }

// Close stops the measurement loop and severs the front door's
// connections; the handler keeps working with the last installed limit.
func (s *Server) Close() {
	s.loop.Close()
	s.CloseConns()
}

// Limit returns the currently installed total concurrency bound: the
// shared pool in pool mode, the sum of class limits in per-class mode.
func (s *Server) Limit() float64 { return s.multi.Limit() }

// elapsed is seconds since server start — the time axis workload schedules
// and interval stats share.
func (s *Server) elapsed() float64 { return time.Since(s.start).Seconds() }

// BeginDrain marks the server as draining: /healthz answers 503 with
// status "draining" and the load signal tells routing tiers to stop
// sending new work, while in-flight transactions keep running. Used by
// graceful shutdown so a proxy can distinguish a drain from a crash.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.sigStamp.Store(-signalTTL.Nanoseconds() * 2) // force the next refresh
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }
