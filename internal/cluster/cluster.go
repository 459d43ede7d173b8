// Package cluster is the routing tier in front of N loadctld backends:
// one Proxy accepts /txn traffic and dispatches each request to a backend
// chosen by a pluggable load-aware policy, so the single-node adaptive
// admission control of the paper scales out without the balancer and the
// per-node controllers fighting each other.
//
// The proxy learns backend load two ways, both cheap:
//
//   - passively: every forwarded /txn response carries the backend's
//     X-Loadctl-Load header (limit, active, queued, utilization, per-class
//     shed state) — routing information rides on the traffic itself;
//   - actively: a health-check loop polls each backend's /healthz on a
//     fixed interval, which also revives backends that passive traffic
//     marked dead and detects draining backends with no traffic.
//
// Overload propagates instead of queueing: when every live backend's last
// interval shed a class, the proxy answers that class 503 + Retry-After
// immediately — the cluster-level analogue of the paper's admission gate
// shedding at a full queue, and the behavior that keeps a saturated
// cluster's queues from growing without bound. A backend that refuses
// connections is marked dead at once and the request fails over to
// another backend; a failure after the dial (the request may have
// reached the backend) is answered 502 instead of replayed, because
// transactions are not idempotent. A draining backend (graceful
// shutdown) is taken out of rotation without being counted as failed.
//
// The hop to a backend is an http.RoundTripper the relay path does not
// look inside. By default it is a link.Transport: a persistent framed
// connection negotiated per backend, HTTP for backends that refuse it
// (see internal/link); Config.Transport pins any other.
//
// Endpoints: POST /txn (the routed data path), GET /metrics (Prometheus
// text, ?format=json for a snapshot — the same dual-format contract as
// loadctld), GET /healthz (proxy self-health: degraded/down as backends
// disappear), GET /debug/requests (captured per-request routing traces —
// policy picks, relay attempts, failovers; see internal/reqtrace), GET
// /debug/incidents (overload incidents — cluster-wide shed, backend
// death, relay shed spikes — with flight-recorder bundles; internal/obs).
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/obs"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// BackendHeader names the response header the proxy adds with the index
// of the backend that served the request — observability for clients and
// tests, and the ground truth for redistribution assertions.
const BackendHeader = "X-Loadctl-Backend"

// Config parameterizes the proxy.
type Config struct {
	// Backends are the base URLs of the loadctld instances; required.
	Backends []string
	// Policy names the routing policy: "round-robin" (default),
	// "least-inflight", or "threshold".
	Policy string
	// HealthInterval is the active health-check period (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default: HealthInterval,
	// capped at 2s).
	HealthTimeout time.Duration
	// TuneInterval is the period of the proxy's control loop: the
	// threshold policy's θ self-tuning folds its observed fallback /
	// non-discrimination events and moves θ once per TuneInterval, and
	// every loop tick records a decision in the trace exported by
	// GET /controller?trace=1 (default: HealthInterval).
	TuneInterval time.Duration
	// DeadAfter is how many consecutive failed health checks mark a
	// backend dead (default 2). Refused/reset connections on the data
	// path mark it dead immediately regardless.
	DeadAfter int
	// SignalStale is how old a passively ingested load signal may be
	// before the policies stop trusting it (default 3×HealthInterval).
	SignalStale time.Duration
	// MaxBodyBytes caps the /txn request body the proxy buffers for
	// retries (default 1MiB).
	MaxBodyBytes int64
	// ReqTrace parameterizes per-request tracing (head-sampling period,
	// capture ring size, slow-tail depth — see reqtrace.Config). The Tier
	// field is overridden to "proxy". The zero value gives the defaults:
	// 1/1024 head sampling, ring 256, slowest 16. The proxy mints a trace
	// ID for every request it has none for and forwards it in the
	// X-Loadctl-Trace header, so backend traces of the same request share
	// the ID.
	ReqTrace reqtrace.Config
	// Transport overrides the outbound transport: the proxy then uses
	// exactly this for relays and health probes (tests, decorated
	// transports). The default is a link.Transport, which negotiates the
	// framed proxy⇄backend wire per backend and falls back to HTTP for
	// backends that do not speak it.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "round-robin"
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = c.HealthInterval
		if c.HealthTimeout > 2*time.Second {
			c.HealthTimeout = 2 * time.Second
		}
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2
	}
	if c.TuneInterval <= 0 {
		c.TuneInterval = c.HealthInterval
	}
	if c.SignalStale <= 0 {
		c.SignalStale = 3 * c.HealthInterval
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Transport == nil {
		c.Transport = link.NewTransport()
	}
	return c
}

// backend is one upstream loadctld as the proxy tracks it. All fields are
// atomics: the data path and the health loop touch them without locks.
type backend struct {
	url string
	// txnURL and indexStr are precomputed at New so the relay path never
	// parses, concatenates, or formats per request: forward copies the
	// pre-parsed URL value and splices in the request's RawQuery.
	txnURL   url.URL
	indexStr string

	inflight atomic.Int64 // proxy's own outstanding requests toward it

	forwarded atomic.Uint64 // forward attempts started
	relayed   atomic.Uint64 // backend responses relayed to the client
	errs      atomic.Uint64 // transport failures talking to it

	dead     atomic.Bool
	draining atomic.Bool
	// deadSince is nanos since proxy start of the dead transition (valid
	// while dead).
	deadSince   atomic.Int64
	consecFails atomic.Int32
	checks      atomic.Uint64 // health probes sent
	checkFails  atomic.Uint64 // health probes failed

	sig atomic.Pointer[loadsig.Signal]
	// sigRaw is the raw header the current sig was parsed from: backends
	// regenerate the signal once per control interval, so consecutive
	// responses carry byte-identical headers and ingest skips the reparse.
	sigRaw atomic.Pointer[string]
	sigAt  atomic.Int64 // nanos since proxy start of the last signal

	ewmaLatNanos atomic.Int64 // smoothed relay latency
}

// score is the backend's load estimate the policies rank on: the fraction
// of its admission capacity in use, with queued demand counted on top, so
// ≥ 1 means "saturated — new work will queue or shed there". It blends
// the last passive/active signal with the proxy's own in-flight count
// (which is always fresh); with no usable signal only the local view
// remains, normalized by a nominal capacity so scores stay comparable.
func (b *backend) score(nowNanos int64, stale time.Duration) float64 {
	inf := float64(b.inflight.Load())
	const nominal = 16.0
	sig := b.sig.Load()
	if sig == nil || nowNanos-b.sigAt.Load() > stale.Nanoseconds() {
		return inf / nominal
	}
	limit := sig.Limit
	if limit <= 0 || math.IsInf(limit, 1) {
		limit = math.Max(nominal, inf)
	}
	active := math.Max(float64(sig.Active), inf)
	return (active + float64(sig.Queued)) / limit
}

// saturated reports whether the backend's last signal shows a full gate
// with waiters — the "marked saturated" state exposed in metrics.
func (b *backend) saturated(nowNanos int64, stale time.Duration) bool {
	sig := b.sig.Load()
	return sig != nil && nowNanos-b.sigAt.Load() <= stale.Nanoseconds() &&
		sig.Queued > 0 && loadsig.UtilOf(sig.Active, sig.Limit) >= 1
}

// markDead transitions the backend to dead (idempotently) at nowNanos.
func (b *backend) markDead(nowNanos int64) {
	if b.dead.CompareAndSwap(false, true) {
		b.deadSince.Store(nowNanos)
	}
}

// revive clears the dead state after a successful health probe.
func (b *backend) revive() {
	b.consecFails.Store(0)
	b.dead.Store(false)
}

// Proxy is the routing tier. Create with New, serve Handler, Close to
// stop the health and control loops.
type Proxy struct {
	cfg      Config
	backends []*backend
	policy   Policy
	client   *http.Client
	mux      *http.ServeMux
	start    time.Time

	seq atomic.Uint64
	tel *telemetry.Counters // striped hot-path counters (one group)
	rec *reqtrace.Recorder  // per-request traces behind /debug/requests

	// relayHist buckets relay latencies (successful relays only): the
	// interval-delta source of the proxy's p95 and of incident-bundle
	// histogram evidence. Atomic buckets; Observe stays on the relay path
	// without growing its allocation budget.
	relayHist telemetry.Histogram

	// Overload observability (internal/obs), mirroring the server's:
	// obsRing/det/obsRec detect and file incidents, runtime samples the Go
	// runtime at tune ticks. det and the prev*/decisionHist fields below
	// belong to the tune-tick goroutine exclusively.
	obsRing       *obs.Ring
	det           *obs.Detector
	obsRec        *obs.Recorder
	runtime       *telemetry.RuntimeSampler
	prevObsFold   telemetry.Fold
	prevRelayHist telemetry.HistCounts
	decisionHist  []ctl.Decision

	loop *ctl.Loop // θ self-tuning + decision trace

	stop  chan struct{}
	done  chan struct{}
	swept chan struct{} // closed when the first health sweep has finished
}

// New validates cfg and starts the health and control loops.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	policy, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(cfg.Backends))
	p := &Proxy{
		cfg:    cfg,
		policy: policy,
		client: &http.Client{Transport: cfg.Transport},
		start:  time.Now(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		swept:  make(chan struct{}),
	}
	for _, u := range cfg.Backends {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, errors.New("cluster: empty backend URL")
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", u)
		}
		seen[u] = true
		tu, err := url.Parse(u + "/txn")
		if err != nil {
			return nil, fmt.Errorf("cluster: backend URL %q: %w", u, err)
		}
		p.backends = append(p.backends, &backend{url: u, txnURL: *tu, indexStr: strconv.Itoa(len(p.backends))})
	}
	cfg.ReqTrace.Tier = "proxy"
	p.rec = reqtrace.New(cfg.ReqTrace)
	p.tel = telemetry.NewCounters(1, counterSchema...)
	p.obsRing = obs.NewRing(obs.DefaultRingSize)
	p.det = obs.NewDetector(p.obsRing)
	p.obsRec = obs.NewRecorder("proxy", obs.DefaultMaxIncidents,
		func() float64 { return float64(p.nowNanos()) / 1e9 }, p.obsRing)
	p.runtime = telemetry.NewRuntimeSampler()
	p.prevObsFold = make(telemetry.Fold, len(counterSchema))
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/txn", p.handleTxn)
	p.mux.Handle("/debug/requests", p.rec.Handler())
	p.mux.Handle("/debug/incidents", p.obsRec.Handler())
	p.mux.Handle("/metrics", telemetry.MetricsEndpoint{
		Snapshot: func(bool) any { return p.SnapshotNow() },
		Prom:     func() *telemetry.PromText { return renderProm(p.SnapshotNow()) },
	})
	p.mux.HandleFunc("/controller", p.handleController)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	go p.healthLoop()
	p.loop = ctl.Start(ctl.Config{
		Interval: p.cfg.TuneInterval,
		Tick:     p.tuneTick,
	})
	return p, nil
}

// Handler returns the HTTP handler serving all proxy endpoints.
func (p *Proxy) Handler() http.Handler { return p.mux }

// Close stops the health and control loops and drops the idle backend
// connections; the handler keeps routing on last-known backend state.
func (p *Proxy) Close() {
	close(p.stop)
	<-p.done
	p.loop.Close()
	p.client.CloseIdleConnections()
}

// Policy returns the active routing policy's name.
func (p *Proxy) PolicyName() string { return p.policy.Name() }

// Requests returns the per-request trace recorder (the state behind
// GET /debug/requests), for embedders mounting it on a debug listener.
func (p *Proxy) Requests() *reqtrace.Recorder { return p.rec }

// Incidents returns the overload flight recorder (the state behind
// GET /debug/incidents), for embedders mounting it on a debug listener.
func (p *Proxy) Incidents() *obs.Recorder { return p.obsRec }

func (p *Proxy) nowNanos() int64 { return time.Since(p.start).Nanoseconds() }

// routable collects into dst the backends new work may go to: not dead,
// not draining. Excluded indexes (already tried this request) are
// skipped. dst comes from the relay scratch, so the set costs nothing to
// build in steady state.
//
//loadctl:hotpath
func (p *Proxy) routable(dst []int, exclude uint64) []int {
	dst = dst[:0]
	for i, b := range p.backends {
		if exclude&(1<<uint(i)) != 0 {
			continue
		}
		if b.dead.Load() || b.draining.Load() {
			continue
		}
		dst = append(dst, i) //loadctl:allocok audited: grows the pooled routable set to backend count once; the steady state reuses its capacity
	}
	return dst
}

// clusterShedding reports whether every routable backend's fresh signal
// sheds the request's class — the condition under which queueing at the
// proxy only adds latency to work the cluster will drop anyway. An
// untagged request belongs to each backend's default admission class
// (the signal names it), so classless traffic propagates too. A stale or
// missing signal — or one too old to name its default class — vetoes
// propagation: fast-rejecting on guesswork would turn a signal outage
// into an outage of the class. Only the class query parameter is
// considered; a class given solely in the JSON body is not parsed on the
// proxy's hot path and is treated as untagged.
func (p *Proxy) clusterShedding(routable []int, class string) bool {
	if len(routable) == 0 {
		return false
	}
	now := p.nowNanos()
	for _, i := range routable {
		b := p.backends[i]
		sig := b.sig.Load()
		if sig == nil || now-b.sigAt.Load() > p.cfg.SignalStale.Nanoseconds() {
			return false
		}
		name := class
		if name == "" {
			name = sig.Default
		}
		if name == "" || !sig.Shed(name) {
			return false
		}
	}
	return true
}

// fastReject answers 503 with a jittered Retry-After: a shed burst with a
// fixed retry delay would re-arrive in lockstep one period later.
func fastReject(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", loadsig.RetryAfter())
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// allowPost is the Allow header of /txn's 405 (RFC 9110 §15.5.6). The
// slice is shared by every such answer: net/http only reads it.
var allowPost = []string{http.MethodPost}

// handleTxn is the proxy's data path: every routed transaction passes
// through here, so it carries the hot-path allocation discipline
// (//loadctl:hotpath) like the server's handler.
//
//loadctl:hotpath
func (p *Proxy) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header()["Allow"] = allowPost
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	cell := p.tel.Cell(0, p.seq.Add(1))
	cell.Inc(cRequests)
	sc := getRelayScratch()
	defer putRelayScratch(sc)

	// Per-request tracing. The proxy is the edge: it reuses a client's
	// trace ID or mints one, records its own routing spans under it, and
	// forwards the ID so the chosen backend's trace joins this one.
	traceID, hadTrace := reqtrace.FromRequest(r)
	if !hadTrace {
		traceID = reqtrace.NewID()
	}
	tr := p.rec.Begin(traceID)
	idHex := reqtrace.FormatID(traceID) //loadctl:allocok audited: the hex ID rides the forward header on every request, sampled or not
	if tr.Sampled() {
		w.Header().Set(reqtrace.Header, idHex)
	}

	// Buffer the body once so a failed forward can be retried verbatim on
	// another backend.
	var body []byte
	if r.Body != nil && r.ContentLength != 0 {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, p.cfg.MaxBodyBytes+1))
		if err != nil {
			cell.Inc(cDisconnects)
			tr.Finish(reqtrace.StatusDisconnect, false)
			return
		}
		if int64(len(body)) > p.cfg.MaxBodyBytes {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			// Count it as served: it left through an HTTP answer the
			// client saw, not through a routing door.
			cell.Inc(cRelayed)
			tr.Finish(reqtrace.StatusRelayed, true)
			return
		}
	}

	class, plain := queryClassFast(r.URL.RawQuery)
	if !plain {
		class = r.URL.Query().Get("class") //loadctl:allocok audited: escaped query strings only — plain queries take the zero-alloc scan
	}
	tr.Annotate(class)
	var tried uint64
	t0 := tr.Start()
	for attempt := 0; ; attempt++ {
		sc.routable = p.routable(sc.routable, tried)
		routable := sc.routable
		if len(routable) == 0 {
			if attempt == 0 {
				cell.Inc(cShedNoBackend)
				fastReject(w, "no backend available")
				tr.Finish(reqtrace.StatusShedNoBack, false)
			} else {
				cell.Inc(cFailed)
				http.Error(w, "all backends failed", http.StatusBadGateway)
				tr.Finish(reqtrace.StatusFailed, false)
			}
			return
		}
		if attempt == 0 && p.clusterShedding(routable, class) {
			// Overload propagation: every live backend shed this class
			// last interval. Queueing here would only delay the 503 the
			// cluster is already giving; reject fast so clients back off.
			cell.Inc(cShedOverload)
			fastReject(w, fmt.Sprintf("cluster shedding class %q", class)) //loadctl:allocok audited: overload-propagation shed path, not the relay path
			tr.Finish(reqtrace.StatusShedOverload, false)
			return
		}
		pickStart := tr.Now()
		i := p.pick(sc, routable)
		tr.Span(reqtrace.SpanPick, pickStart, "", i)
		tried |= 1 << uint(i)
		if attempt > 0 {
			cell.Inc(cRetries)
		}
		relayStart := tr.Now()
		done, err := p.forward(w, r, sc, i, body, idHex)
		if done {
			tr.Span(reqtrace.SpanRelay, relayStart, reqtrace.DetailRelayed, i)
			cell.Inc(cRelayed)
			lat := time.Since(t0)
			cell.Add(cRespNanos, uint64(lat.Nanoseconds()))
			cell.Inc(cRespN)
			// Bucketed alongside the sum/count cells: the interval delta
			// yields the relay p95 (atomic adds, no allocation).
			p.relayHist.Observe(lat.Seconds())
			tr.FinishWall(reqtrace.StatusRelayed, true, lat)
			return
		}
		if r.Context().Err() != nil {
			// The client went away; nothing to answer and no blame on the
			// backend.
			cell.Inc(cDisconnects)
			tr.Span(reqtrace.SpanRelay, relayStart, reqtrace.DetailDisconnect, i)
			tr.Finish(reqtrace.StatusDisconnect, false)
			return
		}
		// Transport failure: the backend is unreachable. Mark it dead now
		// — the health loop revives it.
		p.backends[i].markDead(p.nowNanos())
		if !retriableForward(err) {
			// The request may have reached the backend before the
			// connection broke (e.g. a reset mid-response): a transaction
			// is not idempotent, so replaying it elsewhere could execute
			// it twice. Surface the failure instead and let the client
			// decide — only dial-level failures, where the request
			// provably never left the proxy, fail over transparently.
			cell.Inc(cFailed)
			tr.Span(reqtrace.SpanRelay, relayStart, reqtrace.DetailError, i)
			http.Error(w, "backend failed mid-request", http.StatusBadGateway)
			tr.Finish(reqtrace.StatusFailed, false)
			return
		}
		// Dial-level failure: the at-most-once retry stays under the same
		// trace ID, with this failed attempt on record.
		tr.Span(reqtrace.SpanRelay, relayStart, reqtrace.DetailDialError, i)
	}
}

// pick scores the routable backends and lets the policy choose. The
// scoring slate lives in the relay scratch, so a pick allocates nothing
// in steady state.
//
//loadctl:hotpath
func (p *Proxy) pick(sc *relayScratch, routable []int) int {
	if len(routable) == 1 {
		return routable[0]
	}
	now := p.nowNanos()
	sc.cands = sc.cands[:0]
	for _, i := range routable {
		b := p.backends[i]
		sc.cands = append(sc.cands, Candidate{ //loadctl:allocok audited: grows the pooled scoring slate to backend count once; the steady state reuses its capacity
			Index:    i,
			Score:    b.score(now, p.cfg.SignalStale),
			Inflight: b.inflight.Load(),
		})
	}
	return p.policy.Pick(sc.cands)
}

// retriableForward reports whether a forward error happened at the dial
// level — connection refused, no route, DNS — meaning the request never
// reached the backend and replaying it on another one cannot double-run
// a transaction.
func retriableForward(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// forward sends the request to backend i and relays the response. It
// returns done=true when a response (any status) was relayed to the
// client; done=false with the transport error when the backend could not
// be reached, leaving the ResponseWriter untouched so the caller may
// retry elsewhere.
//
// The outbound request is built by hand from the backend's pre-parsed
// /txn URL — no string concatenation, no URL parsing, no GetBody
// snapshot (the proxy does its own at-most-once failover; backends never
// redirect /txn). Its pieces — URL copy, header map, body reader — are
// the relay path's deliberate per-request allocations: they escape into
// the transport, whose write loop can still be consuming them after Do
// returns when a backend answers before reading the full request, so
// pooling them would race (see fastrelay.go).
//
//loadctl:hotpath
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, sc *relayScratch, i int, body []byte, traceHex string) (bool, error) {
	b := p.backends[i]
	u := b.txnURL // copy; the pre-parsed original stays pristine
	u.RawQuery = r.URL.RawQuery
	hdr := make(http.Header, 2) //loadctl:allocok audited: escapes into the transport — see the function comment
	if ct := r.Header.Get("Content-Type"); ct != "" {
		hdr["Content-Type"] = []string{ct} //loadctl:allocok audited: escapes into the transport — see the function comment
	}
	// Propagate the trace ID: the backend records its spans under the
	// same trace, and head sampling (a pure function of the ID) picks the
	// same requests on both tiers.
	hdr[reqtrace.Header] = []string{traceHex} //loadctl:allocok audited: escapes into the transport — see the function comment
	req := (&http.Request{
		Method: http.MethodPost,
		URL:    &u,
		Header: hdr,
	}).WithContext(r.Context())
	if body != nil {
		br := &relayBody{} //loadctl:allocok audited: escapes into the transport — see the function comment
		br.Reset(body)
		req.Body = br
		req.ContentLength = int64(len(body))
		// GetBody keeps the request replayable so the transport can retry
		// it transparently when a kept-alive idle connection turns out to
		// have died — without it a stale-connection race would surface as
		// a backend failure.
		req.GetBody = func() (io.ReadCloser, error) { //loadctl:allocok audited: escapes into the transport — see the function comment
			rb := &relayBody{}
			rb.Reset(body)
			return rb, nil
		}
	}
	b.forwarded.Add(1)
	b.inflight.Add(1)
	t0 := time.Now() //loadctl:allocok audited: relay-latency clock read for the EWMA — the proxy's sanctioned t0
	// The transport is driven directly, not through http.Client: the proxy
	// relays 3xx answers verbatim rather than following them, has no
	// cookie jar, and bounds the call with the inbound request's context —
	// everything Client.do would add is redirect machinery that clones the
	// header map on every request.
	resp, err := p.client.Transport.RoundTrip(req)
	b.inflight.Add(-1)
	if err != nil {
		b.errs.Add(1)
		return false, err
	}
	defer resp.Body.Close()
	p.ingest(b, resp)
	b.noteLatency(time.Since(t0))
	b.relayed.Add(1)

	h := w.Header()
	for _, key := range relayHeaders {
		if v := resp.Header.Get(key); v != "" {
			setHeader(h, key, v)
		}
	}
	setHeader(h, BackendHeader, b.indexStr)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.CopyBuffer(w, resp.Body, sc.copyBuf)
	return true, nil
}

// relayHeaders are the backend response headers the proxy relays to the
// client (hoisted so the relay loop does not rebuild the list per request).
var relayHeaders = [...]string{"Content-Type", "Retry-After", loadsig.Header}

// relayBody is the outbound request body: a bytes.Reader over the
// buffered request bytes that satisfies io.ReadCloser without the
// io.NopCloser wrapper allocation.
type relayBody struct{ bytes.Reader }

func (*relayBody) Close() error { return nil }

// ingest records the load signal riding a forwarded response. The
// backend rebuilds its signal once per control interval, so consecutive
// responses usually carry a byte-identical header: those only refresh
// the freshness timestamp, skipping the parse (sig is stored before
// sigRaw, so a raw match always sees a signal at least that new).
//
//loadctl:hotpath
func (p *Proxy) ingest(b *backend, resp *http.Response) {
	h := resp.Header.Get(loadsig.Header)
	if h == "" {
		return
	}
	if prev := b.sigRaw.Load(); prev != nil && *prev == h {
		b.sigAt.Store(p.nowNanos())
		return
	}
	sig, err := loadsig.Parse(h) //loadctl:allocok audited: signal changed — at most once per backend control interval, not per request
	if err != nil {
		return // a garbled signal is ignored, not trusted
	}
	raw := h //loadctl:allocok audited: boxed raw-header cache, same once-per-interval cadence as the parse
	b.sig.Store(sig)
	b.sigRaw.Store(&raw)
	b.sigAt.Store(p.nowNanos())
	b.draining.Store(sig.Draining())
}

// noteLatency folds one relay latency into the EWMA. The racy
// read-modify-write loses updates under contention, which only slows the
// smoothing — acceptable for an observability gauge.
func (b *backend) noteLatency(lat time.Duration) {
	const alpha = 0.2
	old := b.ewmaLatNanos.Load()
	if old == 0 {
		b.ewmaLatNanos.Store(lat.Nanoseconds())
		return
	}
	b.ewmaLatNanos.Store(int64(alpha*float64(lat.Nanoseconds()) + (1-alpha)*float64(old)))
}
