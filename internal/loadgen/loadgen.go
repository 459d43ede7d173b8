// Package loadgen drives the transaction server with synthetic traffic
// over real TCP connections, replaying the same workload.Schedule time
// courses the simulator uses — so every simulator-only scenario (constant,
// jump, sinusoid, step) becomes a live-traffic scenario.
//
// Two generator shapes, matching the two canonical traffic models:
//
//   - open loop: arrivals form a (possibly time-varying) Poisson process
//     whose rate follows a Schedule; latency does not throttle arrivals,
//     so overload pressure is sustained — the regime where admission
//     control matters most;
//
//   - closed loop: a fixed population of clients, each cycling
//     think → request → response, the paper's terminal model (§7).
//
// Run replays one Config and RunScenario a JSON scenario of several
// streams; both compile to the same stream runner, so every open loop
// keeps to its absolute arrival schedule.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	neturl "net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
	"github.com/tpctl/loadctl/internal/workload"
)

// Mode selects the traffic model.
type Mode int

const (
	// Open generates Poisson arrivals at a schedule-driven rate,
	// independent of response latency.
	Open Mode = iota
	// Closed runs a fixed client population with think times.
	Closed
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Closed {
		return "closed"
	}
	return "open"
}

// Config parameterizes one load-generation run.
type Config struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8344"; required
	// unless URLs is set.
	URL string
	// URLs, when non-empty, spreads the load over several targets (a
	// proxy plus its backends, or the backends directly): open-loop
	// arrivals rotate round-robin per request, closed-loop clients are
	// pinned to targets round-robin by client index. Takes precedence
	// over URL.
	URLs []string
	// Mode selects open- or closed-loop traffic (default Open).
	Mode Mode
	// Rate is the open-loop arrival rate in requests/second as a function
	// of seconds since run start; required for Open mode.
	Rate workload.Schedule
	// Clients is the closed-loop population size (default 32).
	Clients int
	// Think is the closed-loop think-time distribution in seconds
	// (default exponential with mean 0.1s).
	Think sim.Dist
	// Mix shapes transactions over time (class and size); default
	// workload.DefaultMix(). The server resolves zero values from its own
	// mix, so only explicitly configured schedules are sent.
	Mix workload.Mix
	// Duration bounds the run (default 10s); the context can end it early.
	Duration time.Duration
	// Timeout is the per-request HTTP timeout (default 30s).
	Timeout time.Duration
	// MaxInFlight caps concurrently outstanding open-loop requests; when
	// the cap is hit further arrivals are shed client-side and counted in
	// Report.Shed (default 4096).
	MaxInFlight int
	// Seed derives all random streams (arrivals, think times, mixes).
	Seed int64
	// Trace mints a fresh X-Loadctl-Trace ID for every request, making the
	// load generator the tracing edge: the proxy and backend adopt the ID,
	// so a request head-sampled by ID residue is captured in both tiers'
	// /debug/requests rings under the same identifier.
	Trace bool
	// Client overrides the HTTP client (tests); Timeout is ignored then.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.Think == nil {
		c.Think = sim.Exponential{Mu: 0.1}
	}
	if c.Mix.K == nil {
		c.Mix = workload.DefaultMix()
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	if c.Client == nil {
		c.Client = newClient(c.Timeout)
	}
	return c
}

// newClient is the default HTTP client. net/http keeps two idle
// connections per host unless told otherwise, so an open loop whose
// in-flight count swings above two dials and drops a connection on almost
// every arrival; from a few thousand requests a second that churn, not the
// target, sets the latency, and the generator falls behind its schedule.
func newClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0 // no total cap; the per-host cap below binds
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Timeout: timeout, Transport: tr}
}

// Report summarizes one run from the client's vantage point.
type Report struct {
	Mode     string  `json:"mode"`
	Duration float64 `json:"duration_seconds"`
	// Sent counts requests handed to the HTTP client (build failures for
	// a malformed URL are included and land in Errors, keeping the
	// identity below exact); Shed counts open-loop arrivals dropped
	// client-side at the in-flight cap (offered load the server never
	// saw).
	Sent uint64 `json:"sent"`
	Shed uint64 `json:"shed"`
	// Committed / Rejected / Timeouts / Aborted mirror the server's
	// status answers; Errors counts transport failures and unexpected
	// statuses; Unresolved counts requests cut off by the end of the run
	// while still in flight — sent, but with an unknowable outcome. The
	// report always reconciles exactly:
	//
	//	Sent == Committed + Rejected + Timeouts + Aborted + Errors + Unresolved
	Committed  uint64 `json:"committed"`
	Rejected   uint64 `json:"rejected"`
	Timeouts   uint64 `json:"timeouts"`
	Aborted    uint64 `json:"aborted"`
	Errors     uint64 `json:"errors"`
	Unresolved uint64 `json:"unresolved"`
	// Queries/Updates count requests whose shape the client chose;
	// requests that leave the shape to the server (class-tagged scenario
	// streams without an explicit shape) are in neither, so the pair may
	// undercount Sent.
	Queries uint64 `json:"queries"`
	Updates uint64 `json:"updates"`
	// Throughput is committed transactions per second of run time.
	Throughput float64 `json:"throughput"`
	// LatMean/LatP50/LatP95/LatP99 are response-time statistics in seconds
	// over committed requests, corrected for coordinated omission: in open
	// loop each latency is measured from the request's *intended* send slot
	// on the arrival schedule, not from whenever the generator actually got
	// it onto the wire. When the generator falls behind (GC pause, CPU
	// starvation, a stalled connection pool), the missed wait is service
	// delay the schedule's client would have experienced — dropping it
	// understates tail latency exactly when the system is in trouble. The
	// quantiles are log-bucket midpoints, within about ±10 %; means are exact.
	LatMean float64 `json:"lat_mean"`
	LatP50  float64 `json:"lat_p50"`
	LatP95  float64 `json:"lat_p95"`
	LatP99  float64 `json:"lat_p99"`
	// LatRaw* are the uncorrected statistics, measured from the actual
	// send: the classic (flattering) numbers. Corrected == raw when the
	// generator kept pace; a gap between the two measures generator lag. In
	// closed-loop mode there is no intended schedule, so the pairs match.
	LatRawMean float64 `json:"lat_raw_mean"`
	LatRawP50  float64 `json:"lat_raw_p50"`
	LatRawP95  float64 `json:"lat_raw_p95"`
	LatRawP99  float64 `json:"lat_raw_p99"`
}

// String renders the report as a human-readable block.
func (r Report) String() string {
	return fmt.Sprintf(
		"%s-loop %.1fs: sent=%d committed=%d (%.1f tx/s) rejected=%d timeouts=%d aborted=%d shed=%d errors=%d unresolved=%d\n"+
			"latency: mean=%.1fms p50=%.1fms p95=%.1fms p99=%.1fms (raw p99=%.1fms, queries=%d updates=%d)",
		r.Mode, r.Duration, r.Sent, r.Committed, r.Throughput, r.Rejected, r.Timeouts,
		r.Aborted, r.Shed, r.Errors, r.Unresolved,
		1e3*r.LatMean, 1e3*r.LatP50, 1e3*r.LatP95, 1e3*r.LatP99, 1e3*r.LatRawP99, r.Queries, r.Updates)
}

// collector accumulates thread-safe run statistics. Latency quantiles come
// from the same lock-free log-bucket histogram the servers export on
// /metrics (±10 % from 50 µs up); means stay exact.
type collector struct {
	sent, shed, committed, rejected, timeouts, aborted, errs atomic.Uint64
	unresolved                                               atomic.Uint64
	queries, updates                                         atomic.Uint64

	hist    telemetry.Histogram // corrected: from the intended send slot
	rawHist telemetry.Histogram // raw: from the actual send

	mu     sync.Mutex
	lat    telemetry.Welford
	rawLat telemetry.Welford
}

func (c *collector) observe(status int, lat, rawLat time.Duration, err error) {
	if err != nil {
		c.errs.Add(1)
		return
	}
	switch status {
	case http.StatusOK:
		c.committed.Add(1)
		c.hist.Observe(lat.Seconds())
		c.rawHist.Observe(rawLat.Seconds())
		c.mu.Lock()
		c.lat.Add(lat.Seconds())
		c.rawLat.Add(rawLat.Seconds())
		c.mu.Unlock()
	case http.StatusTooManyRequests:
		c.rejected.Add(1)
	case http.StatusServiceUnavailable:
		c.timeouts.Add(1)
	case http.StatusConflict:
		c.aborted.Add(1)
	default:
		c.errs.Add(1)
	}
}

func (c *collector) report(mode Mode, dur time.Duration) Report {
	r := Report{
		Mode:       mode.String(),
		Duration:   dur.Seconds(),
		Sent:       c.sent.Load(),
		Shed:       c.shed.Load(),
		Committed:  c.committed.Load(),
		Rejected:   c.rejected.Load(),
		Timeouts:   c.timeouts.Load(),
		Aborted:    c.aborted.Load(),
		Errors:     c.errs.Load(),
		Unresolved: c.unresolved.Load(),
		Queries:    c.queries.Load(),
		Updates:    c.updates.Load(),
	}
	if r.Duration > 0 {
		r.Throughput = float64(r.Committed) / r.Duration
	}
	c.mu.Lock()
	mean, rawMean := c.lat.Mean(), c.rawLat.Mean()
	c.mu.Unlock()
	r.setLatency(mean, rawMean, c.hist.Counts(), c.rawHist.Counts())
	return r
}

// setLatency fills the latency fields from the means and the bucket counts
// of the corrected and raw histograms.
func (r *Report) setLatency(mean, rawMean float64, hist, rawHist telemetry.HistCounts) {
	r.LatMean, r.LatRawMean = mean, rawMean
	r.LatP50, r.LatP95, r.LatP99 = hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99)
	r.LatRawP50, r.LatRawP95, r.LatRawP99 = rawHist.Quantile(0.50), rawHist.Quantile(0.95), rawHist.Quantile(0.99)
}

// targets spreads requests over one or more base URLs: next() rotates
// round-robin (open-loop arrivals), pin() fixes a client to one target
// (closed-loop terminals keep their connections warm on one host).
type targets struct {
	urls []string
	n    atomic.Uint64
}

func newTargets(urls []string) (*targets, error) {
	out := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		out = append(out, strings.TrimRight(u, "/"))
	}
	if len(out) == 0 {
		return nil, errors.New("loadgen: at least one target URL is required")
	}
	return &targets{urls: out}, nil
}

func (t *targets) next() string {
	return t.urls[int((t.n.Add(1)-1)%uint64(len(t.urls)))]
}

func (t *targets) pin(i int) string {
	if i < 0 {
		i = -i
	}
	return t.urls[i%len(t.urls)]
}

// targetList resolves Config.URLs/URL into the target set.
func (c Config) targetList() ([]string, error) {
	if len(c.URLs) > 0 {
		return c.URLs, nil
	}
	if c.URL != "" {
		return []string{c.URL}, nil
	}
	return nil, errors.New("loadgen: Config.URL or Config.URLs is required")
}

// Run drives the server until Duration elapses or ctx ends, then returns
// the client-side report. The error is non-nil only for configuration
// problems; transport failures are counted, not fatal.
func Run(ctx context.Context, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	urls, err := cfg.targetList()
	if err != nil {
		return Report{}, err
	}
	tg, err := newTargets(urls)
	if err != nil {
		return Report{}, err
	}
	if cfg.Mode == Open && cfg.Rate == nil {
		return Report{}, errors.New("loadgen: open-loop mode needs Config.Rate")
	}
	if cfg.Mode != Open && cfg.Mode != Closed {
		return Report{}, fmt.Errorf("loadgen: unknown mode %d", cfg.Mode)
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	s := &stream{
		mode:        cfg.Mode,
		rate:        cfg.Rate,
		k:           cfg.Mix.K,
		queryFrac:   cfg.Mix.QueryFrac,
		think:       cfg.Think,
		clients:     cfg.Clients,
		maxInFlight: cfg.MaxInFlight,
		trace:       cfg.Trace,
		seed:        cfg.Seed,
		client:      cfg.Client,
		targets:     tg,
		start:       time.Now(),
		col:         &collector{},
	}
	s.run(runCtx)
	return s.col.report(cfg.Mode, time.Since(s.start)), nil
}

// stream is the one traffic driver: Run compiles its Config into one, and
// RunScenario compiles each StreamConfig into one.
type stream struct {
	mode         Mode
	class, shape string
	// rate paces an open stream; k and queryFrac, when nil, leave the size
	// and the shape to the server.
	rate, k, queryFrac workload.Schedule
	think              sim.Dist // closed-loop think time in seconds
	clients            int
	maxInFlight        int
	// startS/stopS bound the active window on the run clock (stop 0 = to
	// the end of the run).
	startS, stopS float64
	hotspot       *HotspotConfig
	items         int // store size, for placing hotspot ranges
	retryOn       map[int]bool
	retryMax      int
	backoff       time.Duration
	stall         time.Duration
	trace         bool

	// Run wiring: the stream's RNG offset, shared client and targets, the
	// run's start, and the stream's own collector.
	id      uint64
	seed    int64
	client  *http.Client
	targets *targets
	start   time.Time
	col     *collector
}

func (s *stream) run(ctx context.Context) {
	if s.mode == Closed {
		s.runClosed(ctx)
		return
	}
	s.runOpen(ctx)
}

// ended reports whether the stream's window closed before run time t.
func (s *stream) ended(t float64) bool { return s.stopS > 0 && t >= s.stopS }

// runOpen paces a non-homogeneous Poisson process: inter-arrival gaps are
// exponential at the instantaneous rate Rate(t). Each arrival fires in its
// own goroutine so slow responses never throttle the arrival process.
//
// Pacing follows an absolute intended-time schedule: each exponential gap
// advances next from the previous intended slot, never from whenever the
// loop actually woke up. If the generator falls behind (GC pause, CPU
// starvation, timer slack on sub-millisecond gaps), subsequent arrivals
// fire back-to-back until the schedule catches up, and each request's
// corrected latency is measured from its intended slot. Pacing relative
// to the actual wake time instead would silently slow the offered load
// and hide the backlog — the coordinated omission trap.
func (s *stream) runOpen(ctx context.Context) {
	pacer := sim.Stream(s.seed, 1000+s.id)
	mixer := sim.Stream(s.seed, 2000+s.id)
	sem := make(chan struct{}, s.maxInFlight)
	var wg sync.WaitGroup
	defer wg.Wait()
	next := s.start
	for {
		t := next.Sub(s.start).Seconds()
		if s.ended(t) {
			return
		}
		rate := 0.0
		if t >= s.startS {
			rate = s.rate.Value(t)
		}
		dormant := rate <= 0 || math.IsNaN(rate)
		if dormant {
			// Dormant schedule or window not yet open: step the intended
			// clock forward in poll increments until the rate comes alive.
			next = next.Add(10 * time.Millisecond)
		} else {
			next = next.Add(time.Duration(pacer.Exp(1/rate) * float64(time.Second)))
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			// Behind schedule: fire immediately, but still honor run end.
			return
		}
		if dormant {
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			s.col.shed.Add(1)
			continue
		}
		p := s.params(mixer, next.Sub(s.start).Seconds())
		base := s.targets.next()
		intended := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s.request(ctx, base, p, intended)
		}()
	}
}

// runClosed runs the terminal model: clients goroutines looping
// think → request → response while the window is open. Each client is
// pinned to one target, spreading the population round-robin.
func (s *stream) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < s.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := s.targets.pin(int(s.id)*1000 + id)
			rng := sim.Stream(s.seed, 10000+s.id*1000+uint64(id))
			for {
				gap := time.Duration(s.think.Sample(rng) * float64(time.Second))
				t := time.Since(s.start).Seconds()
				if t < s.startS {
					gap = time.Duration((s.startS - t) * float64(time.Second))
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(gap):
				}
				t = time.Since(s.start).Seconds()
				if s.ended(t) {
					return
				}
				if t < s.startS {
					continue
				}
				// No intended slot: a closed-loop client genuinely waits
				// for each response, so the raw latency is the honest one.
				s.request(ctx, base, s.params(rng, t), time.Time{})
			}
		}(i)
	}
	wg.Wait()
}

// params assembles one request's parameters at run time t.
func (s *stream) params(rng *sim.RNG, t float64) txnParams {
	p := txnParams{Class: s.class, Shape: s.shape, Trace: s.trace}
	if p.Shape == "" && s.queryFrac != nil {
		p.Shape = "update"
		if rng.Bernoulli(clamp01(s.queryFrac.Value(t))) {
			p.Shape = "query"
		}
	}
	if s.k != nil {
		k := int(math.Round(s.k.Value(t)))
		if k < 1 {
			k = 1
		}
		p.K = k
	}
	if h := s.hotspot; h != nil {
		span := int(h.SpanFrac * float64(s.items))
		if span < 1 {
			span = 1
		}
		shift := 0
		if h.ShiftSeconds > 0 {
			shift = int(t / h.ShiftSeconds)
		}
		// Knuth-style multiplicative placement decorrelates successive
		// hot-set positions across the store.
		p.Base = int((uint64(shift)*2654435761 + s.id*97) % uint64(s.items))
		p.Span = span
	}
	return p
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// request performs one logical transaction: the first attempt, timed from
// intended when the stream has a schedule, plus any configured client-side
// retries of shed outcomes, which are timed raw.
func (s *stream) request(ctx context.Context, base string, p txnParams, intended time.Time) {
	for attempt := 0; ; attempt++ {
		status := issueRequest(ctx, s.client, base, s.col, p, intended)
		if attempt >= s.retryMax || !s.retryOn[status] {
			break
		}
		intended = time.Time{}
		if s.backoff > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(s.backoff):
			}
		}
	}
	if s.stall > 0 {
		// Slow-client drip: dwell before releasing this slot/terminal.
		select {
		case <-ctx.Done():
		case <-time.After(s.stall):
		}
	}
}

// txnParams is everything one POST /txn carries. Class/Shape empty means
// "server decides"; Span 0 means the full store. Trace mints a fresh
// X-Loadctl-Trace ID on the request.
type txnParams struct {
	Class string
	Shape string
	K     int
	Base  int
	Span  int
	Trace bool
}

// url renders the query string against the server base URL.
func (p txnParams) url(base string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/txn")
	sep := byte('?')
	add := func(key, val string) {
		b.WriteByte(sep)
		sep = '&'
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if p.Class != "" {
		add("class", neturl.QueryEscape(p.Class))
	}
	if p.Shape != "" {
		add("shape", neturl.QueryEscape(p.Shape))
	}
	if p.K > 0 {
		add("k", strconv.Itoa(p.K))
	}
	if p.Span > 0 {
		add("base", strconv.Itoa(p.Base))
		add("span", strconv.Itoa(p.Span))
	}
	return b.String()
}

// issueRequest performs one POST /txn round trip and records the outcome.
// It returns the HTTP status (0 when the request never completed). A non-zero intended timestamps the
// request's slot on the arrival schedule; the corrected latency is
// measured from it (raw latency always runs from the actual send).
func issueRequest(ctx context.Context, client *http.Client, base string, col *collector, p txnParams, intended time.Time) int {
	// The pacing selects racing ctx.Done against a zero timer can let an
	// arrival through after run end; don't count a request never sent.
	if ctx.Err() != nil {
		return 0
	}
	// Count the attempt before building the request: a malformed URL makes
	// every build fail, and those failures must land in Errors *and* Sent
	// or the report identity (Sent == sum of outcomes) breaks.
	col.sent.Add(1)
	shape := p.Shape
	if shape == "" && (p.Class == "query" || p.Class == "update") {
		shape = p.Class // legacy shape-through-class API
	}
	switch shape {
	case "query":
		col.queries.Add(1)
	case "update":
		col.updates.Add(1)
	default:
		// The server decides the shape (class default or mix sample);
		// the client cannot book it, so Queries+Updates may undercount
		// Sent for class-tagged streams.
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url(base), nil)
	if err != nil {
		col.errs.Add(1)
		return 0
	}
	if p.Trace {
		req.Header.Set(reqtrace.Header, reqtrace.FormatID(reqtrace.NewID()))
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// A request cut short by run end is not a server failure; its
		// outcome is simply unknown. Count it so the report still
		// reconciles against Sent instead of silently dropping it.
		if ctx.Err() != nil {
			col.unresolved.Add(1)
		} else {
			col.observe(0, 0, 0, err)
		}
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	raw := time.Since(t0)
	lat := raw
	if !intended.IsZero() {
		// Corrected latency: what a client that showed up on schedule
		// experienced, generator lag included.
		lat = time.Since(intended)
	}
	col.observe(resp.StatusCode, lat, raw, nil)
	return resp.StatusCode
}
