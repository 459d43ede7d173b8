// Package reqtrace is the per-request tracing layer shared by the
// transaction server and the cluster routing tier: where the telemetry
// layer explains the *aggregate* (histograms, interval folds), reqtrace
// explains the *individual* request — a trace is the list of per-stage
// spans one request passed through (proxy policy pick, relay attempts,
// gate queue wait, engine execution attempts) plus the controller state it
// hit at admit time, so a single slow or shed transaction can be read back
// end to end.
//
// Identity. Each request carries a 64-bit trace ID, minted at the edge
// (the proxy, the load generator, or the server itself when a request
// arrives untagged) and propagated downstream in the X-Loadctl-Trace
// header, so the proxy's trace and the backend's trace of the same
// request share an ID and can be joined offline.
//
// Capture policy — three doors into the retained set:
//
//   - head sampling: a trace whose ID falls in the 1/SampleEvery residue
//     class is always captured. The decision is a pure function of the ID,
//     so every tier samples the *same* requests without coordination;
//   - error tail: every request that ends in anything but a commit/relay
//     (shed, admission timeout, terminal abort, backend failure,
//     disconnect) is captured — failures are never sampled away;
//   - slow tail: the slowest SlowN requests seen so far are retained
//     regardless of sampling, so "why was this slow" always has evidence.
//
// Head- and error-captured traces land in a fixed-size lock-free ring
// (newest wins, old entries overwritten); the slow tail is kept aside in a
// small floor-guarded set that ring churn cannot evict. GET
// /debug/requests (Recorder.Handler) exports both as JSON.
//
// Hot-path discipline. Every request records spans into a pooled
// fixed-size buffer; when the request turns out to be unsampled, healthy
// and fast, Finish returns the buffer to the pool untouched — the steady
// state adds no allocations to the request path (see the package
// benchmark and the CI alloc gate). Publishing (the copy into an immutable
// Trace) happens only for captured requests.
package reqtrace

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Header is the HTTP header carrying the trace ID (16 lowercase hex
// digits) on requests between tiers and on sampled responses.
const Header = "X-Loadctl-Trace"

// Span names. A span is one stage of a request's life; names are shared
// schema between tiers so joined traces read uniformly.
const (
	// SpanQueue is the admission-gate stage on the server: its duration is
	// the queue wait, its detail the admission outcome.
	SpanQueue = "queue"
	// SpanExec is one engine execution attempt on the server (read +
	// execute + commit under concurrency control); N is the attempt
	// number, the detail its outcome.
	SpanExec = "exec"
	// SpanPick is the proxy's routing-policy decision; N is the chosen
	// backend index.
	SpanPick = "pick"
	// SpanRelay is one proxy forward attempt; N is the backend index, the
	// detail the attempt's outcome.
	SpanRelay = "relay"
)

// Span details — the per-stage outcomes.
const (
	DetailAdmitted   = "admitted"
	DetailRejected   = "rejected"
	DetailTimeout    = "timeout"
	DetailCommitted  = "committed"
	DetailAborted    = "aborted"
	DetailError      = "error"
	DetailRelayed    = "relayed"
	DetailDialError  = "dial-error"
	DetailDisconnect = "disconnect"
)

// Terminal trace statuses. The server uses the /txn response statuses
// (committed, rejected, timeout, aborted, error, disconnect); the proxy
// its routing outcomes (relayed, shed-overload, shed-nobackend, failed,
// disconnect).
const (
	StatusCommitted    = "committed"
	StatusRejected     = "rejected"
	StatusTimeout      = "timeout"
	StatusAborted      = "aborted"
	StatusError        = "error"
	StatusDisconnect   = "disconnect"
	StatusRelayed      = "relayed"
	StatusShedOverload = "shed-overload"
	StatusShedNoBack   = "shed-nobackend"
	StatusFailed       = "failed"
)

// Capture reasons recorded on retained traces.
const (
	CaptureHead  = "head"
	CaptureError = "error"
	CaptureSlow  = "slow"
)

// maxSpans bounds the spans one request may record; recording past the
// cap increments SpansDropped instead of growing (the buffer is pooled
// and must stay fixed-size).
const maxSpans = 16

// NewID mints a nonzero trace ID. IDs are uniform, so the head-sampling
// residue ID%SampleEvery == 0 selects 1/SampleEvery of minted traffic.
//
//loadctl:hotpath
func NewID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// FormatID renders an ID in the 16-hex-digit header form.
func FormatID(id uint64) string {
	var buf [16]byte
	return string(AppendID(buf[:0], id))
}

// AppendID appends the 16-hex-digit header form of id to b.
//
//loadctl:hotpath
func AppendID(b []byte, id uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[id>>uint(shift)&0xf])
	}
	return b
}

// ParseID decodes the header form; ok is false for anything but exactly
// 16 hex digits encoding a nonzero ID.
//
//loadctl:hotpath
func ParseID(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, false
	}
	return id, true
}

// FromRequest extracts a propagated trace ID from r, if present and
// well-formed. Header lookup and parse allocate nothing.
//
//loadctl:hotpath
func FromRequest(r *http.Request) (uint64, bool) {
	return ParseID(r.Header.Get(Header))
}

// Span is one recorded stage of a request. Start is relative to the
// trace's own start, so spans within a trace reconcile against WallNanos
// without clock arithmetic.
type Span struct {
	Name string `json:"name"`
	// StartNanos is the span's offset from the trace start.
	StartNanos int64 `json:"start_ns"`
	// DurNanos is the span's duration (0 for marker spans).
	DurNanos int64 `json:"dur_ns"`
	// Detail is the stage outcome (one of the Detail constants).
	Detail string `json:"detail,omitempty"`
	// N disambiguates repeated spans: the execution attempt number, the
	// backend index of a relay attempt.
	N int `json:"n,omitempty"`
}

// Trace is one captured request, immutable once published.
type Trace struct {
	// ID is the propagated trace ID in header form.
	ID string `json:"id"`
	// Tier is the capturing tier ("server" or "proxy").
	Tier string `json:"tier"`
	// Class is the admission class (server) or the class query parameter
	// (proxy; empty for untagged traffic).
	Class string `json:"class,omitempty"`
	// Status is the terminal outcome (one of the Status constants).
	Status string `json:"status"`
	// Capture is why the trace was retained: head, error, or slow.
	Capture string `json:"capture"`
	// StartUnixNanos is the request's wall-clock start.
	StartUnixNanos int64 `json:"start_unix_ns"`
	// WallNanos is the request's total time in this tier. The spans are
	// sequential stages of the same request, so their durations sum to at
	// most WallNanos.
	WallNanos int64 `json:"wall_ns"`
	// Limit is the controller's installed concurrency limit at admit time
	// (server traces; ≤ signal-cache staleness, see server docs).
	Limit float64 `json:"limit,omitempty"`
	// ShedMask is the per-class shed bitmask at admit time: bit i set
	// means class i shed load in the last closed interval.
	ShedMask uint64 `json:"shed_mask,omitempty"`
	// SpansDropped counts spans lost to the fixed per-request span cap.
	SpansDropped int    `json:"spans_dropped,omitempty"`
	Spans        []Span `json:"spans"`
}

// Config parameterizes a Recorder. The zero value gives the defaults;
// negative SampleEvery disables head sampling and negative SlowN disables
// the slow tail (error capture is always on).
type Config struct {
	// Tier labels captured traces ("server", "proxy").
	Tier string
	// SampleEvery is the head-sampling period: traces whose ID satisfies
	// ID % SampleEvery == 0 are always captured (default 1024; 1 captures
	// everything; negative disables head sampling).
	SampleEvery int
	// RingSize is the capacity of the head/error capture ring (default
	// 256).
	RingSize int
	// SlowN is how many slowest requests the tail keeps (default 16;
	// negative disables the slow tail).
	SlowN int
	// Classes is the tier's closed class vocabulary, when it has one: the
	// handler then rejects ?class= filters naming unknown classes with 400
	// instead of silently returning an empty dump. Nil means the class
	// labels are open-ended (the proxy, where classes are client-supplied)
	// and any filter value is accepted.
	Classes []string
}

func (c Config) withDefaults() Config {
	if c.Tier == "" {
		c.Tier = "server"
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 1024
	}
	if c.RingSize <= 0 {
		c.RingSize = 256
	}
	if c.SlowN == 0 {
		c.SlowN = 16
	}
	return c
}

// Recorder owns the capture policy and the retained traces of one tier.
// All methods are safe for concurrent use.
type Recorder struct {
	cfg  Config
	pool sync.Pool // *Active

	ring ring
	slow slowest

	started  atomic.Uint64 // Begin calls
	capHead  atomic.Uint64
	capError atomic.Uint64
	capSlow  atomic.Uint64
}

// New builds a Recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{cfg: cfg}
	r.pool.New = func() any { return new(Active) }
	r.ring.slots = make([]atomic.Pointer[Trace], cfg.RingSize)
	r.slow.init(cfg.SlowN)
	return r
}

// SampleEvery returns the effective head-sampling period (0 when head
// sampling is disabled).
func (r *Recorder) SampleEvery() int {
	if r.cfg.SampleEvery < 0 {
		return 0
	}
	return r.cfg.SampleEvery
}

// Begin starts recording one request under the given trace ID. The
// returned buffer is pooled: the caller must call Finish exactly once on
// every path. The steady-state Begin/record/Finish cycle of an unsampled,
// healthy, fast request performs no allocation.
//
//loadctl:hotpath
func (r *Recorder) Begin(id uint64) *Active {
	r.started.Add(1)
	a := r.pool.Get().(*Active)
	a.rec = r
	a.id = id
	a.start = time.Now() //loadctl:allocok audited: trace t0 — the one sanctioned clock read; hot code derives offsets from it via Now/Since
	a.sampled = r.cfg.SampleEvery > 0 && id%uint64(r.cfg.SampleEvery) == 0
	a.n = 0
	a.dropped = 0
	a.class = ""
	a.limit = 0
	a.shed = 0
	return a
}

// Active is one request's in-flight span buffer. It is not safe for
// concurrent use; one request owns it from Begin to Finish.
type Active struct {
	rec     *Recorder
	id      uint64
	start   time.Time
	sampled bool

	n       int
	dropped int
	spans   [maxSpans]Span

	class string
	limit float64
	shed  uint64
}

// Sampled reports whether the trace is head-sampled — known at Begin, so
// a tier can propagate or echo the ID only for requests that will be
// retained everywhere.
//
//loadctl:hotpath
func (a *Active) Sampled() bool { return a.sampled }

// ID returns the trace ID.
//
//loadctl:hotpath
func (a *Active) ID() uint64 { return a.id }

// Start returns the trace's start time; tiers use it as the request's t0
// so trace wall time and measured latency share an origin.
//
//loadctl:hotpath
func (a *Active) Start() time.Time { return a.start }

// Now is the current offset from the trace start — the value to pass back
// to Span as the stage's start.
//
//loadctl:hotpath
func (a *Active) Now() time.Duration { return time.Since(a.start) }

// Span records a stage that began at offset start (from Now) and ends at
// the call. Detail and n annotate the stage per the span schema; past the
// span cap the record is dropped and counted.
//
//loadctl:hotpath
func (a *Active) Span(name string, start time.Duration, detail string, n int) {
	if a.n >= maxSpans {
		a.dropped++
		return
	}
	end := time.Since(a.start)
	if end < start {
		end = start
	}
	a.spans[a.n] = Span{
		Name:       name,
		StartNanos: start.Nanoseconds(),
		DurNanos:   (end - start).Nanoseconds(),
		Detail:     detail,
		N:          n,
	}
	a.n++
}

// Annotate records the request's admission class. The string must be
// long-lived (a config-owned class name, not a per-request build).
//
//loadctl:hotpath
func (a *Active) Annotate(class string) { a.class = class }

// SetAdmit records the controller state the request hit at admit (or
// shed) time: the installed concurrency limit and the per-class shed
// bitmask of the last closed interval.
//
//loadctl:hotpath
func (a *Active) SetAdmit(limit float64, shedMask uint64) {
	a.limit = limit
	a.shed = shedMask
}

// Finish ends the trace with the given terminal status, measuring wall
// time at the call. ok marks a healthy outcome (commit/relay); anything
// else is error-captured.
//
//loadctl:hotpath
func (a *Active) Finish(status string, ok bool) {
	a.FinishWall(status, ok, time.Since(a.start))
}

// FinishWall is Finish with the wall time supplied by the caller, so the
// trace records exactly the latency the tier measured (and fed its
// histograms) rather than a second, slightly later reading. Exactly one
// of Finish/FinishWall must be called, as the buffer returns to the pool.
//
//loadctl:hotpath
func (a *Active) FinishWall(status string, ok bool, wall time.Duration) {
	rec := a.rec
	capture := ""
	switch {
	case !ok:
		capture = CaptureError
	case a.sampled:
		capture = CaptureHead
	}
	slowOK := rec.slow.qualifies(wall.Nanoseconds())
	if capture == "" && !slowOK {
		a.rec = nil
		rec.pool.Put(a)
		return
	}
	t := a.publish(status, capture, wall) //loadctl:allocok audited: captured traces only (head-sample, error, slow tail); the unsampled steady-state cycle returned above
	a.rec = nil
	rec.pool.Put(a)
	switch capture {
	case CaptureHead:
		rec.capHead.Add(1)
		rec.ring.put(t)
	case CaptureError:
		rec.capError.Add(1)
		rec.ring.put(t)
	}
	if slowOK && rec.slow.insert(t) {
		rec.capSlow.Add(1)
	}
}

// publish copies the buffer into an immutable Trace. Capture may be empty
// for a pure slow-tail retention; the stored reason is then "slow".
func (a *Active) publish(status, capture string, wall time.Duration) *Trace {
	if capture == "" {
		capture = CaptureSlow
	}
	t := &Trace{
		ID:             FormatID(a.id),
		Tier:           a.rec.cfg.Tier,
		Class:          a.class,
		Status:         status,
		Capture:        capture,
		StartUnixNanos: a.start.UnixNano(),
		WallNanos:      wall.Nanoseconds(),
		Limit:          a.limit,
		ShedMask:       a.shed,
		SpansDropped:   a.dropped,
		Spans:          append([]Span(nil), a.spans[:a.n]...),
	}
	return t
}

// ring is the fixed-size lock-free trace ring: writers claim slots from
// an atomic cursor and newest entries overwrite oldest.
//
//loadctl:atomiccell
type ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Trace]
}

func (r *ring) put(t *Trace) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot collects the retained traces, oldest first, as a window no
// wider than the ring even under concurrent writers (see
// telemetry.RingWindow).
func (r *ring) snapshot() []*Trace { return telemetry.RingWindow(&r.pos, r.slots) }

// slowest retains the N slowest traces. The fast path is one atomic load:
// floor is the smallest wall time in the kept set once full (-1 while
// filling, so everything qualifies), and only requests beating it take
// the mutex.
type slowest struct {
	n     int
	floor atomic.Int64
	mu    sync.Mutex
	kept  []*Trace
}

func (s *slowest) init(n int) {
	if n < 0 {
		n = 0
	}
	s.n = n
	s.floor.Store(-1)
	if n == 0 {
		s.floor.Store(1<<63 - 1) // nothing ever qualifies
	}
}

func (s *slowest) qualifies(wallNanos int64) bool {
	return wallNanos > s.floor.Load()
}

// insert adds t if it still beats the floor under the lock (the floor may
// have moved since qualifies); reports whether the trace was kept.
func (s *slowest) insert(t *Trace) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kept) < s.n {
		s.kept = append(s.kept, t)
		if len(s.kept) == s.n {
			s.floor.Store(s.minWallLocked())
		}
		return true
	}
	// Full: replace the current minimum if t beats it.
	mi, mw := 0, s.kept[0].WallNanos
	for i, k := range s.kept[1:] {
		if k.WallNanos < mw {
			mi, mw = i+1, k.WallNanos
		}
	}
	if t.WallNanos <= mw {
		return false
	}
	s.kept[mi] = t
	s.floor.Store(s.minWallLocked())
	return true
}

func (s *slowest) minWallLocked() int64 {
	m := s.kept[0].WallNanos
	for _, k := range s.kept[1:] {
		if k.WallNanos < m {
			m = k.WallNanos
		}
	}
	return m
}

// snapshot returns the kept traces, slowest first.
func (s *slowest) snapshot() []*Trace {
	s.mu.Lock()
	out := append([]*Trace(nil), s.kept...)
	s.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].WallNanos > out[j-1].WallNanos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
