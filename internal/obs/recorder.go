package obs

import (
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Recorder is the flight recorder: it files incidents (with their
// bundles) as the detector emits edges, tracks how many are open, and
// serves the record at GET /debug/incidents. Open/Close are called from
// the tier's tick goroutine; Dump, OpenCount and the handler are safe for
// concurrent use.
type Recorder struct {
	tier  string
	max   int
	nowFn func() float64
	ring  *Ring

	openCnt atomic.Int64

	mu        sync.Mutex
	incidents []Incident // ascending incident ID, bounded at max
}

// DefaultMaxIncidents bounds the retained incident list when a caller
// passes 0.
const DefaultMaxIncidents = 64

// NewRecorder builds a recorder for one tier. nowFn supplies seconds
// since tier start (the incident dump's clock, which the monitor aligns
// against wall time); ring is the detector's event ring the dump
// re-exports.
func NewRecorder(tier string, maxIncidents int, nowFn func() float64, ring *Ring) *Recorder {
	if maxIncidents <= 0 {
		maxIncidents = DefaultMaxIncidents
	}
	return &Recorder{tier: tier, max: maxIncidents, nowFn: nowFn, ring: ring}
}

// Incident is one overload episode: its start/end edges plus the bundle
// assembled at the start.
type Incident struct {
	ID      uint64 `json:"id"`
	Kind    string `json:"kind"`
	Subject string `json:"subject,omitempty"`
	// StartT/EndT are seconds since tier start; EndT is 0 while open.
	StartT float64 `json:"start_t"`
	EndT   float64 `json:"end_t,omitempty"`
	// Value is the condition reading that opened the incident; Threshold
	// the on-threshold it crossed.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Bundle is the flight-recorder evidence filed at the start edge.
	Bundle *Bundle `json:"bundle,omitempty"`
}

// Open reports whether the incident has not ended yet.
func (i *Incident) Open() bool { return i.EndT == 0 }

// Open files a new incident from a start edge with its bundle.
func (r *Recorder) Open(ev *Event, bundle *Bundle) {
	r.mu.Lock()
	r.incidents = append(r.incidents, Incident{
		ID: ev.Incident, Kind: ev.Kind, Subject: ev.Subject,
		StartT: ev.T, Value: ev.Value, Threshold: ev.Threshold,
		Bundle: bundle,
	})
	if len(r.incidents) > r.max {
		r.trimLocked()
	}
	r.mu.Unlock()
	r.openCnt.Add(1)
}

// Close stamps the end edge onto the matching open incident. An incident
// already trimmed out of the bounded list just decrements the open count.
func (r *Recorder) Close(ev *Event) {
	r.mu.Lock()
	for i := len(r.incidents) - 1; i >= 0; i-- {
		if r.incidents[i].ID == ev.Incident {
			r.incidents[i].EndT = ev.T
			break
		}
	}
	r.mu.Unlock()
	r.openCnt.Add(-1)
}

// trimLocked drops the oldest closed incident, or the oldest outright
// when everything is still open (bounded memory beats perfect retention).
func (r *Recorder) trimLocked() {
	for i := range r.incidents {
		if !r.incidents[i].Open() {
			r.incidents = append(r.incidents[:i], r.incidents[i+1:]...)
			return
		}
	}
	r.incidents = r.incidents[1:]
}

// OpenCount returns the number of currently open incidents — the summary
// the load signal carries so routing tiers see incident pressure without
// scraping the dump. A single atomic load: the signal refresh path calls
// it per cache miss.
//
//loadctl:hotpath
func (r *Recorder) OpenCount() int { return int(r.openCnt.Load()) }

// IncidentDump is the JSON document served by GET /debug/incidents.
type IncidentDump struct {
	Tier string `json:"tier"`
	// Now is seconds since tier start at dump time — the clock StartT and
	// EndT are on, so a scraper can align incidents to wall time.
	Now  float64 `json:"now"`
	Open int     `json:"open"`
	// Incidents are the retained episodes, oldest first.
	Incidents []Incident `json:"incidents"`
	// Events is the raw edge ring, oldest first.
	Events []Event `json:"events"`
}

// Dump snapshots the incident record. Incidents are value copies taken
// under the lock, so a concurrent Close cannot mutate what an encoder is
// reading.
func (r *Recorder) Dump() IncidentDump {
	d := IncidentDump{Tier: r.tier, Open: r.OpenCount()}
	if r.nowFn != nil {
		d.Now = r.nowFn()
	}
	r.mu.Lock()
	d.Incidents = append([]Incident(nil), r.incidents...)
	r.mu.Unlock()
	if r.ring != nil {
		d.Events = r.ring.Snapshot()
	}
	return d
}

// Handler serves the dump as GET /debug/incidents.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, r.Dump())
	})
}
