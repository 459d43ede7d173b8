// Package obs is the overload-event layer of the observability stack:
// where telemetry explains the aggregate and reqtrace the individual
// request, obs explains the *episode* — the paper's whole premise is that
// overload is a discrete event (thrashing onset crossed, load surged, the
// controller stepped in), so the stack needs a layer that can say "an
// overload incident started at T, here is the evidence, here is what the
// controller did about it".
//
// Three pieces, all off the serving hot path:
//
//   - detection (detect.go): a hysteresis-gated Detector fed once per
//     control-loop tick with condition readings (per-class shed fraction,
//     SLO burn rate, limit collapse, backend death, cluster-wide shed).
//     Crossing the on-threshold opens an incident and emits a start-edge
//     Event; only holding at or below the off-threshold for a few
//     consecutive ticks closes it — level readings never flap into event
//     noise. Edge events land in a bounded lock-free Ring.
//
//   - the flight recorder (recorder.go, bundle.go): on every start edge
//     the detecting tier assembles an incident Bundle — the last N
//     controller decisions, the interval histogram deltas, the current
//     load signal, recent failed and slowest request traces, and a Go
//     runtime snapshot — and files it under the incident. GET
//     /debug/incidents serves the whole record as deterministic JSON on
//     both loadctld and loadctlproxy.
//
//   - the monitor (monitor.go, cmd/loadctlmon): scrapes /metrics,
//     /controller, /healthz and /debug/incidents from a fleet and merges
//     them into one cluster Timeline — per-class admitted/shed/p95/SLO
//     series plus incident markers correlated across tiers by time and by
//     shared trace IDs.
//
// The package sits beside ctl and telemetry in the layering: it imports
// the sensing and deciding layers (plus reqtrace and loadsig for bundle
// evidence) and is imported by the tiers; it never imports server or
// cluster.
package obs

import (
	"sync/atomic"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Event kinds — the overload vocabulary shared by every tier.
const (
	// KindShedSpike is a per-class shed-rate spike: the fraction of the
	// class's interval arrivals shed (admission timeouts + rejections)
	// crossed the threshold.
	KindShedSpike = "shed-spike"
	// KindSLOBurn is an SLO burn-rate breach: a targeted class's interval
	// p95 exceeded its ClassConfig.SLOTarget by the burn factor.
	KindSLOBurn = "slo-burn"
	// KindLimitCollapse is a trust-region collapse of the admission limit:
	// the installed limit fell to a small fraction of its recent maximum —
	// the controller slammed the gate shut.
	KindLimitCollapse = "limit-collapse"
	// KindBackendDead is a proxy-side backend death/failover episode.
	KindBackendDead = "backend-dead"
	// KindClusterShed is cluster-wide shed propagation on the proxy: the
	// fraction of routable backends shedding at least one class crossed
	// the threshold (1.0 = the fast-reject condition).
	KindClusterShed = "cluster-shed"
)

// Event edges. Events are edges, not levels: one Event marks the start of
// an incident, a second — sharing the incident ID — marks its end.
const (
	EdgeStart = "start"
	EdgeEnd   = "end"
)

// Event is one overload-event edge.
type Event struct {
	// Seq numbers events in emission order (monotone per detector).
	Seq uint64 `json:"seq"`
	// Kind is the event vocabulary entry (Kind* constants).
	Kind string `json:"kind"`
	// Subject narrows the kind: the admission class name for shed-spike /
	// slo-burn, the backend index for backend-dead, empty for tier-wide
	// conditions.
	Subject string `json:"subject,omitempty"`
	// Edge is EdgeStart or EdgeEnd.
	Edge string `json:"edge"`
	// T is the edge time in seconds since tier start.
	T float64 `json:"t"`
	// Value is the condition reading at the edge; Threshold the bound it
	// crossed (the on-threshold on a start edge, the off-threshold on an
	// end edge).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Incident joins the start and end edges of one episode.
	Incident uint64 `json:"incident"`
}

// DefaultRingSize is the event ring capacity when a caller passes 0.
const DefaultRingSize = 256

// Ring is the bounded lock-free event ring: the single tick-goroutine
// writer claims slots from an atomic cursor, concurrent /debug/incidents
// readers snapshot without locks, and newest events overwrite oldest —
// the same discipline as the reqtrace capture ring.
//
//loadctl:atomiccell
type Ring struct {
	pos   atomic.Uint64
	slots []atomic.Pointer[Event]
}

// NewRing builds a ring holding the last n events (0 = DefaultRingSize).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{slots: make([]atomic.Pointer[Event], n)}
}

// Put publishes one event. The event pointer is immutable from here on.
//
//loadctl:hotpath
func (r *Ring) Put(e *Event) {
	i := r.pos.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(e)
}

// Snapshot collects the retained events, oldest first, as a window no
// wider than the ring even under a concurrent writer (see
// telemetry.RingWindow).
func (r *Ring) Snapshot() []Event {
	window := telemetry.RingWindow(&r.pos, r.slots)
	out := make([]Event, len(window))
	for i, e := range window {
		out[i] = *e
	}
	return out
}
