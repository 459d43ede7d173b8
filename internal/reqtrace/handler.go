package reqtrace

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Counts are the recorder's monotone capture counters.
type Counts struct {
	// Started counts Begin calls — every traced request, captured or not.
	Started uint64 `json:"started"`
	// Head/Errors/Slow count captures by door. A trace that is both
	// head-sampled and slow counts in both.
	Head   uint64 `json:"head"`
	Errors uint64 `json:"errors"`
	Slow   uint64 `json:"slow"`
}

// Dump is the JSON document served by GET /debug/requests: the capture
// configuration, the counters, the head/error ring (oldest first) and the
// slow tail (slowest first).
type Dump struct {
	Tier        string   `json:"tier"`
	SampleEvery int      `json:"sample_every"`
	RingSize    int      `json:"ring_size"`
	SlowN       int      `json:"slow_n"`
	Counts      Counts   `json:"counts"`
	Ring        []*Trace `json:"ring"`
	Slowest     []*Trace `json:"slowest"`
}

// Dump snapshots the retained traces.
func (r *Recorder) Dump() Dump {
	slowN := r.cfg.SlowN
	if slowN < 0 {
		slowN = 0
	}
	return Dump{
		Tier:        r.cfg.Tier,
		SampleEvery: r.SampleEvery(),
		RingSize:    r.cfg.RingSize,
		SlowN:       slowN,
		Counts: Counts{
			Started: r.started.Load(),
			Head:    r.capHead.Load(),
			Errors:  r.capError.Load(),
			Slow:    r.capSlow.Load(),
		},
		Ring:    r.ring.snapshot(),
		Slowest: r.slow.snapshot(),
	}
}

// DumpFiltered is Dump restricted to traces matching the given class
// and/or terminal status (empty string = no filter on that axis). The
// configuration and counters stay unfiltered — they describe the
// recorder, not the selection.
func (r *Recorder) DumpFiltered(class, outcome string) Dump {
	d := r.Dump()
	if class == "" && outcome == "" {
		return d
	}
	match := func(t *Trace) bool {
		if class != "" && t.Class != class {
			return false
		}
		if outcome != "" && t.Status != outcome {
			return false
		}
		return true
	}
	filter := func(ts []*Trace) []*Trace {
		out := ts[:0:0]
		for _, t := range ts {
			if match(t) {
				out = append(out, t)
			}
		}
		return out
	}
	d.Ring = filter(d.Ring)
	d.Slowest = filter(d.Slowest)
	return d
}

// validOutcomes is the closed terminal-status vocabulary across both
// tiers — the ?outcome= filter accepts exactly these.
var validOutcomes = []string{
	StatusCommitted, StatusRejected, StatusTimeout, StatusAborted,
	StatusError, StatusDisconnect, StatusRelayed, StatusShedOverload,
	StatusShedNoBack, StatusFailed,
}

// Handler serves the dump as GET /debug/requests. The optional ?class=
// and ?outcome= parameters restrict the ring and slow tail; an outcome
// outside the status vocabulary — or, when the recorder was configured
// with a closed class list, a class outside it — is 400 with a message
// naming the valid values.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		class, outcome := q.Get("class"), q.Get("outcome")
		if outcome != "" {
			ok := false
			for _, v := range validOutcomes {
				if outcome == v {
					ok = true
					break
				}
			}
			if !ok {
				http.Error(w, fmt.Sprintf("unknown outcome %q (want one of %s)",
					outcome, strings.Join(validOutcomes, ", ")), http.StatusBadRequest)
				return
			}
		}
		if class != "" && r.cfg.Classes != nil {
			ok := false
			for _, v := range r.cfg.Classes {
				if class == v {
					ok = true
					break
				}
			}
			if !ok {
				http.Error(w, fmt.Sprintf("unknown class %q (want one of %s)",
					class, strings.Join(r.cfg.Classes, ", ")), http.StatusBadRequest)
				return
			}
		}
		telemetry.WriteJSON(w, http.StatusOK, r.DumpFiltered(class, outcome))
	})
}
