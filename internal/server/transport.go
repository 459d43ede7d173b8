package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// This file is the server's transport layer: the /txn data path, the
// /metrics Prometheus rendering (the JSON form and the format contract
// live in telemetry.MetricsEndpoint), and /healthz.

// txnRequest is the optional JSON body of POST /txn; query parameters of
// the same names take precedence.
type txnRequest struct {
	// Class is the admission class name. The legacy values "query" and
	// "update" (when no class of that name is configured) are shape
	// aliases routed to the default class. Empty selects the default
	// class.
	Class string `json:"class"`
	// Shape overrides the transaction shape: "query" (read-only) or
	// "update"; "" falls back to the class default, then the mix.
	Shape string `json:"shape"`
	// K overrides the number of items accessed (0 = class default, then
	// the mix).
	K int `json:"k"`
	// Base/Span restrict the access set to the key range
	// [Base, Base+Span) mod Items — the hotspot knob adversarial
	// scenarios shift over time. Span 0 means the full store.
	Base int `json:"base"`
	Span int `json:"span"`
}

// txnResponse is the JSON answer of POST /txn. Class is the transaction
// shape ("query"/"update" — the field predates multi-class admission);
// AdmissionClass is the admission class the request was gated under.
type txnResponse struct {
	Status         string  `json:"status"`
	Class          string  `json:"class,omitempty"`
	AdmissionClass string  `json:"admission_class,omitempty"`
	Attempts       int     `json:"attempts,omitempty"`
	LatencyMS      float64 `json:"latency_ms"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	telemetry.WriteJSON(w, code, v)
}

// resolveClass maps a request's class/shape fields to (class index, shape)
// or an error message for a 400. Shape "" means "sample from the mix".
func (s *Server) resolveClass(req txnRequest) (ci int, shape string, errMsg string) {
	name, shape := req.Class, req.Shape
	if shape == "" && (name == "query" || name == "update") {
		if _, isClass := s.multi.ClassIndex(name); !isClass {
			// Legacy single-gate API: ?class=query meant the shape.
			name, shape = "", name
		}
	}
	if name != "" {
		idx, ok := s.multi.ClassIndex(name)
		if !ok {
			return 0, "", fmt.Sprintf("unknown class %q (have %s)", name, strings.Join(s.multi.ClassNames(), ", ")) //loadctl:allocok audited: 400 path for an unknown class name
		}
		ci = idx
	}
	if shape == "" {
		shape = s.classes[ci].Shape
	}
	switch shape {
	case "", "query", "update":
	default:
		return 0, "", fmt.Sprintf("bad shape %q (want query or update)", shape) //loadctl:allocok audited: 400 path for a bad shape
	}
	return ci, shape, ""
}

// txnResult is what one transaction answers, independent of the wire it
// arrived on: the net/http adapter turns it into a status line and
// headers, the front door into the same answer rendered by hand, the link
// adapter into a response frame, and none looks inside.
type txnResult struct {
	// status is the HTTP status code; 0 means the caller went away and
	// nothing is to be written.
	status int
	// signal, retryAfter and contentType are the X-Loadctl-Load,
	// Retry-After and Content-Type values ("" = header absent).
	signal      string
	retryAfter  string
	contentType string
	// echo is the trace ID to echo to the caller: set for head-sampled
	// requests only, so the caller learns which of its requests can be
	// looked up here and the unsampled path stays allocation-free.
	echo uint64
	// body aliases the scratch's render buffer.
	body []byte
}

// allowPost is the Allow header of /txn's 405 (RFC 9110 §15.5.6). The
// slice is shared by every such answer: net/http only reads it.
var allowPost = []string{http.MethodPost}

const (
	contentJSON = "application/json"
	// contentText is what http.Error sets; the 400s keep it on both wires.
	contentText = "text/plain; charset=utf-8"
)

// fail renders a plain-text error answer — msg+detail and a newline, the
// body http.Error writes.
//
//loadctl:hotpath
func (sc *txnScratch) fail(code int, msg, detail string) txnResult {
	b := append(sc.buf[:0], msg...)
	b = append(b, detail...)
	sc.buf = append(b, '\n')
	return txnResult{status: code, contentType: contentText, body: sc.buf}
}

// closeWatcher is how a request whose context never ends tells a queued
// admission that its caller hung up: link.Request and the front door's
// doorConn implement it. A net/http request carries the same fact in its
// context and passes nil. runTxn calls stop once the wait is over; the
// door's stop does nothing and the door ends the watch itself once runTxn
// has returned (doorConn.WatchClose says why).
type closeWatcher interface {
	WatchClose(cancel context.CancelFunc) (stop func())
}

// runTxn is the /txn data path, whichever wire the request came in on:
// parse (query and JSON body), class resolution,
// tracing, admission, the execute/retry loop, accounting and the rendered
// answer. With admission, execution and response in one function it is
// the tree's hottest code. The steady state allocates nothing of its own:
// request state, access set, RNG and response buffer live in the pooled
// txnScratch (fastpath.go), the kv transaction is pooled in the store, and
// the admission happy path skips the cancellable context entirely via
// AcquireFast.
//
// rawQuery may alias a buffer the caller reuses once runTxn returns, or
// the one body is read through; it is copied first and nothing retains
// it. body is nil when the request has none. traceID 0
// means the caller propagated none. ctx ends when the caller is known to
// be gone; cw, when non-nil, is armed only at a contended admission
// wait — the one place a request blocks for long.
//
//loadctl:hotpath
func (s *Server) runTxn(ctx context.Context, sc *txnScratch, rawQuery string, body io.Reader, traceID uint64, cw closeWatcher) txnResult {
	req := &sc.req
	// The query is copied before the body is read: rawQuery may alias the
	// buffer the body arrives through (the front door's), and the copy is
	// what parseTxnQuery decodes in place.
	sc.query = append(sc.query[:0], rawQuery...)
	if body != nil {
		if err := json.NewDecoder(body).Decode(req); err != nil { //loadctl:allocok audited: request-body decode, only when a body is present
			return sc.fail(http.StatusBadRequest, "bad JSON body: ", err.Error()) //loadctl:allocok audited: 400 path for malformed JSON
		}
	}
	if errMsg := parseTxnQuery(sc.query, req); errMsg != "" {
		return sc.fail(http.StatusBadRequest, errMsg, "")
	}
	if req.K < 0 || req.Base < 0 || req.Span < 0 {
		return sc.fail(http.StatusBadRequest, "k, base and span must not be negative", "")
	}

	ci, shape, errMsg := s.resolveClass(*req)
	if errMsg != "" {
		return sc.fail(http.StatusBadRequest, errMsg, "")
	}

	now := s.elapsed()
	seq := s.seq.Add(1)
	// All of this request's counter traffic goes to one stripe of its
	// class; requests spread round-robin over stripes, so concurrent
	// requests rarely share a counter cache line and never take s.mu.
	// (The seq atomic itself and the gate's internal mutex remain the
	// shared touch points.)
	cell := s.tel.Cell(ci, seq)

	// Per-request tracing: reuse a propagated trace ID (so this tier's
	// trace joins the proxy's or the load generator's) or mint one. The
	// span buffer is pooled — an unsampled, healthy, fast request records
	// into it and returns it without allocating.
	if traceID == 0 {
		traceID = reqtrace.NewID()
	}
	tr := s.rec.Begin(traceID)
	res := txnResult{contentType: contentJSON}
	if tr.Sampled() {
		res.echo = traceID
	}
	sc.rng = sim.NewFast(s.cfg.Seed, seq)
	var query bool
	switch shape {
	case "query":
		query = true
	case "update":
		query = false
	default:
		query = sc.rng.Bernoulli(s.cfg.Mix.QueryFracAt(now))
	}
	k := req.K
	if k == 0 {
		k = s.classes[ci].K
	}
	if k == 0 {
		k = s.cfg.Mix.KAt(now)
	}
	spec := s.buildSpecFast(sc, k, query, s.cfg.Mix.WriteFracAt(now), req.Base, req.Span)
	spec.Class = ci
	class := "update"
	if query {
		class = "query"
	}
	className := s.classes[ci].Name
	tr.Annotate(className)

	cell.Inc(cRequests)

	// The trace's start doubles as the request's t0 so the latency the
	// client is told, the histogram sample and the trace wall time all
	// share one origin.
	t0 := tr.Start()

	// Admission: the adaptive gate is the paper's §4.3 load control in
	// front of real network traffic, per class. Every shed or served
	// answer carries the load signal, rendered at response time (not
	// arrival) so a request that queued does not ship stale saturation
	// state as fresh; tr.SetAdmit snapshots the limit the request hit at
	// the gate plus the last closed interval's shed mask.
	if s.cfg.Reject {
		if !s.multi.TryAcquire(ci) {
			cell.Inc(cRejected)
			tr.SetAdmit(s.loadSignal().sig.Limit, s.shedMask.Load())
			tr.Span(reqtrace.SpanQueue, tr.Now(), reqtrace.DetailRejected, 0)
			res.status, res.signal, res.retryAfter = http.StatusTooManyRequests, s.loadSignal().header, loadsig.RetryAfter()
			res.body = renderTxn(sc, "rejected", class, className, 0, msSince(t0))
			tr.Finish(reqtrace.StatusRejected, false)
			return res
		}
		tr.SetAdmit(s.loadSignal().sig.Limit, s.shedMask.Load())
		// Marker span (zero wait by construction): non-blocking admission
		// still shows up in the trace as an admitted queue stage, so both
		// admission modes read against one span schema.
		tr.Span(reqtrace.SpanQueue, tr.Now(), reqtrace.DetailAdmitted, 0)
	} else {
		qStart := tr.Now()
		if !s.multi.AcquireFast(ci) {
			// Contended: fall back to the queue with a cancellable
			// deadline. AcquireFast counted nothing, so the arrival is
			// counted exactly once, by Acquire.
			qctx, cancel := context.WithTimeout(ctx, s.cfg.QueueTimeout) //loadctl:allocok audited: contended admission only — the uncontended path fast-admits without a context
			var stop func()
			if cw != nil {
				stop = cw.WatchClose(cancel) //loadctl:allocok audited: contended admission only, beside the context above
			}
			err := s.multi.Acquire(qctx, ci)
			if stop != nil {
				stop()
			}
			cancel()
			if errors.Is(err, context.Canceled) {
				// The caller hung up while queued: its slot in the queue is
				// free again and there is nobody to answer.
				cell.Inc(cDisconnects)
				tr.SetAdmit(s.loadSignal().sig.Limit, s.shedMask.Load())
				tr.Span(reqtrace.SpanQueue, qStart, reqtrace.DetailDisconnect, 0)
				tr.Finish(reqtrace.StatusDisconnect, false)
				return txnResult{}
			}
			if err != nil {
				cell.Inc(cTimeouts)
				tr.SetAdmit(s.loadSignal().sig.Limit, s.shedMask.Load())
				tr.Span(reqtrace.SpanQueue, qStart, reqtrace.DetailTimeout, 0)
				res.status, res.signal, res.retryAfter = http.StatusServiceUnavailable, s.loadSignal().header, loadsig.RetryAfter()
				res.body = renderTxn(sc, "timeout", class, className, 0, msSince(t0))
				tr.Finish(reqtrace.StatusTimeout, false)
				return res
			}
		}
		tr.SetAdmit(s.loadSignal().sig.Limit, s.shedMask.Load())
		tr.Span(reqtrace.SpanQueue, qStart, reqtrace.DetailAdmitted, 0)
	}
	s.noteEnter(cell)

	attempts := 0
	var execErr error
	for {
		attempts++
		eStart := tr.Now()
		execErr = s.cfg.Engine.Exec(ctx, spec)
		if !errors.Is(execErr, ErrAborted) {
			detail := reqtrace.DetailCommitted
			if execErr != nil {
				detail = reqtrace.DetailError
			}
			tr.Span(reqtrace.SpanExec, eStart, detail, attempts)
			break
		}
		cell.Inc(cAborts)
		tr.Span(reqtrace.SpanExec, eStart, reqtrace.DetailAborted, attempts)
		if attempts > s.cfg.MaxRetry {
			break
		}
	}

	s.multi.Release(ci)
	s.noteExit(cell)
	res.signal = s.loadSignal().header

	lat := time.Since(t0)
	switch {
	case execErr == nil:
		cell.Add(cRespNanos, uint64(lat.Nanoseconds()))
		cell.Inc(cRespN)
		cell.Inc(cCommits)
		s.hists[ci].Observe(lat.Seconds())
		res.status = http.StatusOK
		res.body = renderTxn(sc, "committed", class, className, attempts, msSince(t0))
		// FinishWall with the histogram's own sample: trace wall time and
		// the telemetry bucket the request landed in agree exactly.
		tr.FinishWall(reqtrace.StatusCommitted, true, lat)
	case errors.Is(execErr, ErrAborted):
		res.status = http.StatusConflict
		res.body = renderTxn(sc, "aborted", class, className, attempts, msSince(t0))
		tr.FinishWall(reqtrace.StatusAborted, false, lat)
	case errors.Is(execErr, context.Canceled), errors.Is(execErr, context.DeadlineExceeded):
		// The client went away (or its deadline passed) mid-transaction:
		// not an engine failure. Count it separately and answer nothing —
		// nobody is left to read a response.
		cell.Inc(cDisconnects)
		tr.FinishWall(reqtrace.StatusDisconnect, false, lat)
		return txnResult{}
	default:
		// A genuine engine failure.
		res.status = http.StatusInternalServerError
		res.body = renderTxn(sc, "error", class, className, attempts, msSince(t0))
		tr.FinishWall(reqtrace.StatusError, false, lat)
	}
	return res
}

// handleTxn is the HTTP adapter of runTxn: it moves bytes between
// net/http and the transaction path and holds no logic of its own.
//
//loadctl:hotpath
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header()["Allow"] = allowPost
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sc := getTxnScratch()
	defer putTxnScratch(sc)
	var body io.Reader
	if r.Body != nil && r.ContentLength != 0 {
		body = r.Body
	}
	traceID, _ := reqtrace.FromRequest(r)
	res := s.runTxn(r.Context(), sc, r.URL.RawQuery, body, traceID, nil)
	if res.status == 0 {
		return
	}
	h := w.Header()
	if res.echo != 0 {
		h.Set(reqtrace.Header, reqtrace.FormatID(res.echo)) //loadctl:allocok audited: header echo for head-sampled traces only
	}
	if res.signal != "" {
		setHeaderValue(h, loadsig.Header, res.signal)
	}
	if res.retryAfter != "" {
		setHeaderValue(h, "Retry-After", res.retryAfter)
	}
	setHeaderValue(h, "Content-Type", res.contentType)
	if res.contentType == contentText {
		setHeaderValue(h, "X-Content-Type-Options", "nosniff") // as http.Error does
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// ServeLink is the link adapter of runTxn (it implements link.Handler):
// one request frame in, one response frame out, on the connection's own
// goroutine. It asks the connection to close once a drain has begun.
//
//loadctl:hotpath
func (s *Server) ServeLink(req *link.Request, frame []byte) ([]byte, bool) {
	sc := getTxnScratch()
	defer putTxnScratch(sc) // after the frame is built: res.body aliases sc.buf
	var body io.Reader
	if len(req.Body) > 0 {
		sc.body.Reset(req.Body)
		body = &sc.body
	}
	// The context never ends: an admitted transaction runs to completion,
	// and a queued one learns of a hang-up through the close-watcher.
	res := s.runTxn(context.Background(), sc, req.Query, body, req.TraceID, req)
	if res.status == 0 {
		return frame, false
	}
	// AppendResponse only refuses header strings or bodies no answer of
	// runTxn reaches; it then leaves frame empty and the connection ends.
	frame, _ = link.AppendResponse(frame, &link.Response{
		Status: res.status, TraceID: res.echo, Signal: res.signal,
		RetryAfter: res.retryAfter, ContentType: res.contentType, Body: res.body,
	})
	return frame, !s.connsDraining.Load()
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// handleHealthz serves the machine-readable load signal: 200 + JSON while
// serving, 503 + the same JSON while draining (so a plain HTTP checker
// sees a draining backend as out of rotation). The signal also rides the
// response header, same as on /txn.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c := s.loadSignal()
	w.Header().Set(loadsig.Header, c.header)
	code := http.StatusOK
	if c.sig.Draining() {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, c.sig)
}

// renderProm renders one snapshot in the Prometheus text form — the other
// half of the dual-export contract. Rendering from a single snapshot
// keeps the two forms consistent: the golden export test asserts they
// agree value-for-value.
func renderProm(snap Snapshot) *telemetry.PromText {
	var p telemetry.PromText
	p.Gauge("loadctl_limit", "current total adaptive concurrency limit n*", snap.Limit)
	p.Gauge("loadctl_active", "transactions currently holding an admission slot", float64(snap.Active))
	p.Gauge("loadctl_queued", "requests waiting for admission", float64(snap.Queued))
	p.Gauge("loadctl_interval_load", "time-averaged in-flight transactions over the last interval", snap.Interval.Load)
	p.Gauge("loadctl_interval_throughput", "commits per second over the last interval", snap.Interval.Throughput)
	p.Gauge("loadctl_interval_resp_seconds", "mean response time over the last interval", snap.Interval.RespTime)
	p.Gauge("loadctl_interval_abort_rate", "CC aborts per commit over the last interval", snap.Interval.AbortRate)
	p.Counter("loadctl_requests_total", "transaction requests received", snap.Totals.Requests)
	p.Counter("loadctl_commits_total", "transactions committed", snap.Totals.Commits)
	p.Counter("loadctl_aborts_total", "transaction attempts aborted by concurrency control", snap.Totals.Aborts)
	p.Counter("loadctl_rejected_total", "requests shed at a full gate (non-blocking admission)", snap.Totals.Rejected)
	p.Counter("loadctl_admission_timeouts_total", "requests that gave up waiting for admission", snap.Totals.Timeouts)
	p.Counter("loadctl_disconnects_total", "transactions abandoned by client disconnect mid-execution", snap.Totals.Disconnects)
	p.Counter("loadctl_gate_arrivals_total", "admission attempts at the gate", snap.Gate.Arrivals)
	p.Counter("loadctl_gate_admitted_total", "admissions granted by the gate", snap.Gate.Admitted)
	p.Counter("loadctl_gate_rejected_total", "non-blocking admissions refused by the gate", snap.Gate.Rejected)
	p.Gauge("loadctl_gate_queue_max", "high-water mark of the admission queue", float64(snap.Gate.QueueMax))

	gaugeVec := func(name, help string, get func(ClassSnapshot) float64) {
		p.GaugeVec(name, help, "class", func(sample func(string, float64)) {
			for _, c := range snap.Classes {
				sample(c.Name, get(c))
			}
		})
	}
	counterVec := func(name, help string, get func(ClassSnapshot) uint64) {
		p.CounterVec(name, help, "class", func(sample func(string, uint64)) {
			for _, c := range snap.Classes {
				sample(c.Name, get(c))
			}
		})
	}
	gaugeVec("loadctl_class_limit", "effective per-class concurrency slice (share of the pool, or the class's own limit)",
		func(c ClassSnapshot) float64 { return c.Limit })
	gaugeVec("loadctl_class_active", "transactions of the class holding an admission slot",
		func(c ClassSnapshot) float64 { return float64(c.Active) })
	gaugeVec("loadctl_class_queued", "requests of the class waiting for admission",
		func(c ClassSnapshot) float64 { return float64(c.Queued) })
	gaugeVec("loadctl_class_load", "time-averaged in-flight transactions of the class over the last interval",
		func(c ClassSnapshot) float64 { return c.Interval.Load })
	gaugeVec("loadctl_class_throughput", "class commits per second over the last interval",
		func(c ClassSnapshot) float64 { return c.Interval.Throughput })
	gaugeVec("loadctl_class_resp_seconds", "class mean response time over the last interval",
		func(c ClassSnapshot) float64 { return c.Interval.RespTime })
	gaugeVec("loadctl_class_resp_p95_seconds", "class p95 response time since start (log-bucketed)",
		func(c ClassSnapshot) float64 { return c.RespP95 })
	gaugeVec("loadctl_class_interval_resp_p95_seconds", "class p95 response time over the last interval (the SLO regulation signal)",
		func(c ClassSnapshot) float64 { return c.Interval.RespP95 })
	gaugeVec("loadctl_class_slo_target_seconds", "class p95 response-time SLO target (0 = none)",
		func(c ClassSnapshot) float64 { return c.SLOTarget })
	gaugeVec("loadctl_class_weight", "configured class weight (its share of the pool in pool mode)",
		func(c ClassSnapshot) float64 { return c.Weight })
	gaugeVec("loadctl_class_abort_rate", "class CC aborts per commit over the last interval",
		func(c ClassSnapshot) float64 { return c.Interval.AbortRate })
	counterVec("loadctl_class_requests_total", "transaction requests received per class",
		func(c ClassSnapshot) uint64 { return c.Totals.Requests })
	counterVec("loadctl_class_commits_total", "transactions committed per class",
		func(c ClassSnapshot) uint64 { return c.Totals.Commits })
	counterVec("loadctl_class_aborts_total", "transaction attempts aborted per class",
		func(c ClassSnapshot) uint64 { return c.Totals.Aborts })
	counterVec("loadctl_class_rejected_total", "class requests shed at a full gate",
		func(c ClassSnapshot) uint64 { return c.Totals.Rejected })
	counterVec("loadctl_class_timeouts_total", "class requests that gave up waiting for admission",
		func(c ClassSnapshot) uint64 { return c.Totals.Timeouts })
	p.Gauge("loadctl_incidents_open", "overload incidents currently open on the flight recorder", float64(snap.IncidentsOpen))
	p.Gauge("loadctl_link_conns", "open proxy link connections (loadctl-link/1)", float64(snap.LinkConns))
	telemetry.AppendRuntimeProm(&p, snap.Runtime)
	return &p
}
