package cluster

import (
	"strconv"

	"net/http"

	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// This file is the proxy's "sense" wiring: the striped counter schema and
// the snapshot/export assembly. The striped cells, fold machinery and the
// Prometheus+JSON dual exporter are the shared internal/telemetry layer —
// the same primitives the transaction server measures itself with.

// Striped proxy counter schema (fold index order). All monotone; folds
// never lose events.
const (
	cRequests = iota
	cRelayed
	cShedOverload  // fast-rejects: cluster-wide class overload
	cShedNoBackend // fast-rejects: no routable backend
	cFailed        // 502: non-retriable backend failure, or all backends failed
	cDisconnects   // client gone mid-proxy
	cRetries       // forward attempts beyond a request's first
	cRespN
	cRespNanos // summed relay latencies
)

var counterSchema = []string{
	"requests", "relayed", "shed_overload", "shed_nobackend",
	"failed", "disconnects", "retries", "resp_n", "resp_nanos",
}

// Backend states as exposed in metrics.
const (
	StateUp        = "up"
	StateSaturated = "saturated"
	StateDraining  = "draining"
	StateDead      = "dead"
)

// Wires a backend's routed transactions can cross.
const (
	WireLink = "link"
	WireHTTP = "http"
)

// BackendSnapshot is one backend's row in the proxy snapshot.
type BackendSnapshot struct {
	Index int    `json:"index"`
	URL   string `json:"url"`
	// State is up, saturated (signal shows a full gate with waiters),
	// draining, or dead.
	State string `json:"state"`
	// Wire is what a routed transaction to this backend crosses: "link"
	// once the backend has accepted the loadctl-link/1 upgrade, "http"
	// before the first routed transaction, for a backend that refused it,
	// and always under a pinned Config.Transport.
	Wire     string `json:"wire"`
	Inflight int64  `json:"inflight"`
	// Forwarded counts forward attempts, Relayed the responses actually
	// returned to clients, Errors the transport failures; at quiescence
	// Forwarded == Relayed + Errors.
	Forwarded uint64 `json:"forwarded"`
	Relayed   uint64 `json:"relayed"`
	Errors    uint64 `json:"errors"`
	// Score is the load estimate the policies rank on (≥1 ≈ saturated).
	Score float64 `json:"score"`
	// EWMALatencySeconds is the smoothed relay latency.
	EWMALatencySeconds float64 `json:"ewma_latency_seconds"`
	// Signal is the last ingested load signal (nil before the first);
	// SignalAgeSeconds its age (-1 with no signal yet).
	Signal           *loadsig.Signal `json:"signal,omitempty"`
	SignalAgeSeconds float64         `json:"signal_age_seconds"`
	// DeadSinceSeconds is the time of the dead transition on the proxy's
	// clock (seconds since proxy start; 0 unless dead).
	DeadSinceSeconds float64 `json:"dead_since_seconds,omitempty"`
	HealthChecks     uint64  `json:"health_checks"`
	HealthFails      uint64  `json:"health_fails"`
}

// Snapshot is the JSON document served by /metrics?format=json.
type Snapshot struct {
	NowSec float64 `json:"now"`
	Policy string  `json:"policy"`
	// Threshold is the threshold policy's current learned θ (0 for the
	// other policies).
	Threshold             float64 `json:"threshold,omitempty"`
	HealthIntervalSeconds float64 `json:"health_interval_seconds"`
	Alive                 int     `json:"alive"`
	Totals                Totals  `json:"totals"`
	MeanLatencySeconds    float64 `json:"mean_latency_seconds"`
	// RelayP95Seconds is the p95 relay latency since start (log-bucketed).
	RelayP95Seconds float64 `json:"relay_p95_seconds"`
	// Runtime is the Go runtime snapshot taken at the last tune tick.
	Runtime telemetry.RuntimeStats `json:"runtime"`
	// IncidentsOpen is the number of overload incidents currently open on
	// the flight recorder (see GET /debug/incidents).
	IncidentsOpen int `json:"incidents_open"`
	// LinkDials counts link connections established to all backends since
	// start; LinkIdleConns is the pooled idle ones right now. A dial count
	// that keeps climbing under steady load means connections are not
	// being reused.
	LinkDials     uint64            `json:"link_dials"`
	LinkIdleConns int               `json:"link_idle_conns"`
	Backends      []BackendSnapshot `json:"backends"`
}

// Totals are the proxy's monotone counters since start. The identity
//
//	Requests == Relayed + FastRejectedOverload + FastRejectedNoBackend
//	          + Failed + Disconnects
//
// holds exactly at quiescence: every request that enters handleTxn leaves
// through exactly one of those doors.
type Totals struct {
	Requests              uint64 `json:"requests"`
	Relayed               uint64 `json:"relayed"`
	FastRejectedOverload  uint64 `json:"fast_rejected_overload"`
	FastRejectedNoBackend uint64 `json:"fast_rejected_no_backend"`
	Failed                uint64 `json:"failed"`
	Disconnects           uint64 `json:"disconnects"`
	Retries               uint64 `json:"retries"`
}

// foldCells sums the proxy's counter stripes.
func (p *Proxy) foldCells() (Totals, uint64, uint64) {
	f := p.tel.Fold(0)
	t := Totals{
		Requests:              f[cRequests],
		Relayed:               f[cRelayed],
		FastRejectedOverload:  f[cShedOverload],
		FastRejectedNoBackend: f[cShedNoBackend],
		Failed:                f[cFailed],
		Disconnects:           f[cDisconnects],
		Retries:               f[cRetries],
	}
	return t, f[cRespNanos], f[cRespN]
}

// SnapshotNow assembles the current proxy state.
func (p *Proxy) SnapshotNow() Snapshot {
	now := p.nowNanos()
	totals, respNanos, respN := p.foldCells()
	snap := Snapshot{
		NowSec:                float64(now) / 1e9,
		Policy:                p.policy.Name(),
		HealthIntervalSeconds: p.cfg.HealthInterval.Seconds(),
		Totals:                totals,
	}
	if th, ok := p.policy.(*threshold); ok {
		snap.Threshold = th.Theta()
	}
	if respN > 0 {
		snap.MeanLatencySeconds = float64(respNanos) / 1e9 / float64(respN)
	}
	snap.RelayP95Seconds = p.relayHist.Quantile(0.95)
	snap.Runtime = p.runtime.Stats()
	snap.IncidentsOpen = p.obsRec.OpenCount()
	lt, _ := p.cfg.Transport.(*link.Transport)
	for i, b := range p.backends {
		bs := BackendSnapshot{
			Index:              i,
			URL:                b.url,
			Wire:               WireHTTP,
			Inflight:           b.inflight.Load(),
			Forwarded:          b.forwarded.Load(),
			Relayed:            b.relayed.Load(),
			Errors:             b.errs.Load(),
			Score:              b.score(now, p.cfg.SignalStale),
			EWMALatencySeconds: float64(b.ewmaLatNanos.Load()) / 1e9,
			SignalAgeSeconds:   -1,
			HealthChecks:       b.checks.Load(),
			HealthFails:        b.checkFails.Load(),
		}
		if lt != nil {
			ws := lt.Stats(b.txnURL.Host)
			if ws.Link {
				bs.Wire = WireLink
			}
			snap.LinkDials += ws.Dials
			snap.LinkIdleConns += ws.Idle
		}
		if sig := b.sig.Load(); sig != nil {
			bs.Signal = sig
			bs.SignalAgeSeconds = float64(now-b.sigAt.Load()) / 1e9
		}
		switch {
		case b.dead.Load():
			bs.State = StateDead
			bs.DeadSinceSeconds = float64(b.deadSince.Load()) / 1e9
		case b.draining.Load():
			bs.State = StateDraining
		case b.saturated(now, p.cfg.SignalStale):
			bs.State = StateSaturated
		default:
			bs.State = StateUp
		}
		snap.Alive++
		if bs.State == StateDead {
			snap.Alive--
		}
		snap.Backends = append(snap.Backends, bs)
	}
	return snap
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	telemetry.WriteJSON(w, code, v)
}

// renderProm renders one snapshot in the Prometheus text form; the format
// negotiation lives in telemetry.MetricsEndpoint, the same contract as
// loadctld.
func renderProm(snap Snapshot) *telemetry.PromText {
	var p telemetry.PromText
	p.Counter("loadctlproxy_requests_total", "requests accepted at the proxy", snap.Totals.Requests)
	p.Counter("loadctlproxy_relayed_total", "backend responses relayed to clients", snap.Totals.Relayed)
	p.Counter("loadctlproxy_fast_rejected_overload_total", "fast rejects: every live backend shedding the class", snap.Totals.FastRejectedOverload)
	p.Counter("loadctlproxy_fast_rejected_no_backend_total", "fast rejects: no routable backend", snap.Totals.FastRejectedNoBackend)
	p.Counter("loadctlproxy_failed_total", "requests answered 502: a backend failed mid-request (not replayed) or every routable backend failed", snap.Totals.Failed)
	p.Counter("loadctlproxy_disconnects_total", "clients gone before a response could be relayed", snap.Totals.Disconnects)
	p.Counter("loadctlproxy_retries_total", "forward attempts beyond a request's first", snap.Totals.Retries)
	p.Gauge("loadctlproxy_alive_backends", "backends not marked dead", float64(snap.Alive))
	p.Gauge("loadctlproxy_mean_latency_seconds", "mean relay latency since start", snap.MeanLatencySeconds)
	if snap.Threshold > 0 {
		p.Gauge("loadctlproxy_threshold", "threshold policy's learned load threshold", snap.Threshold)
	}
	gaugeVec := func(name, help string, get func(BackendSnapshot) float64) {
		p.GaugeVec(name, help, "backend", func(sample func(string, float64)) {
			for _, bs := range snap.Backends {
				sample(strconv.Itoa(bs.Index), get(bs))
			}
		})
	}
	counterVec := func(name, help string, get func(BackendSnapshot) uint64) {
		p.CounterVec(name, help, "backend", func(sample func(string, uint64)) {
			for _, bs := range snap.Backends {
				sample(strconv.Itoa(bs.Index), get(bs))
			}
		})
	}
	counterVec("loadctlproxy_backend_forwarded_total", "forward attempts per backend",
		func(bs BackendSnapshot) uint64 { return bs.Forwarded })
	counterVec("loadctlproxy_backend_relayed_total", "responses relayed per backend",
		func(bs BackendSnapshot) uint64 { return bs.Relayed })
	counterVec("loadctlproxy_backend_errors_total", "transport failures per backend",
		func(bs BackendSnapshot) uint64 { return bs.Errors })
	gaugeVec("loadctlproxy_backend_inflight", "proxy's outstanding requests per backend",
		func(bs BackendSnapshot) float64 { return float64(bs.Inflight) })
	gaugeVec("loadctlproxy_backend_score", "load score per backend (>=1 means saturated)",
		func(bs BackendSnapshot) float64 { return bs.Score })
	gaugeVec("loadctlproxy_backend_up", "1 when the backend is routable (up or saturated)",
		func(bs BackendSnapshot) float64 {
			if bs.State == StateUp || bs.State == StateSaturated {
				return 1
			}
			return 0
		})
	gaugeVec("loadctlproxy_backend_link", "1 when routed transactions to the backend cross the link, 0 over HTTP",
		func(bs BackendSnapshot) float64 {
			if bs.Wire == WireLink {
				return 1
			}
			return 0
		})
	gaugeVec("loadctlproxy_backend_ewma_latency_seconds", "smoothed relay latency per backend",
		func(bs BackendSnapshot) float64 { return bs.EWMALatencySeconds })
	p.Gauge("loadctlproxy_relay_p95_seconds", "p95 relay latency since start (log-bucketed)", snap.RelayP95Seconds)
	p.Counter("loadctlproxy_link_dials_total", "link connections established to backends", snap.LinkDials)
	p.Gauge("loadctlproxy_link_idle_conns", "pooled idle link connections", float64(snap.LinkIdleConns))
	p.Gauge("loadctlproxy_incidents_open", "overload incidents currently open on the flight recorder", float64(snap.IncidentsOpen))
	telemetry.AppendRuntimeProm(&p, snap.Runtime)
	return &p
}

// handleHealthz reports the proxy's own health: ok with every backend
// routable, degraded with some dead/draining, down (503) with none left.
func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := p.SnapshotNow()
	routable := 0
	for _, bs := range snap.Backends {
		if bs.State != StateDead && bs.State != StateDraining {
			routable++
		}
	}
	status, code := "ok", http.StatusOK
	switch {
	case routable == 0:
		status, code = "down", http.StatusServiceUnavailable
	case routable < len(snap.Backends):
		status = "degraded"
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"routable": routable,
		"backends": len(snap.Backends),
	})
}
