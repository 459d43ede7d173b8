package cluster

import (
	"net/http"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/ctl"
)

// This file is the proxy's "decide" wiring: the ctl.Loop tick that runs
// the routing tier's own control loop, and the /controller inspection
// endpoint — the same shape as the transaction server's control layer.
//
// The loop's sense stage reads the cluster the proxy already models (the
// per-backend load scores the policies rank on); the decide/actuate stage
// belongs to the policy: the threshold policy folds the pick-time events
// it observed since the last tick and moves θ (see threshold.Retune).
// Policies without self-tuning state still get their sensing recorded, so
// the decision trace documents what the routing tier saw either way.

// selfTuning is implemented by policies whose decide step runs on the
// proxy's control loop rather than per pick.
type selfTuning interface {
	// Retune closes one self-tuning interval: fold the events observed
	// since the last call together with the sensed cluster-wide shed
	// fraction (routable backends whose fresh signal sheds ≥ 1 class,
	// in [0, 1]), move the learned parameter, and return its new value
	// plus the event deltas (fallbacks, non-discriminating picks, total
	// picks).
	Retune(shedFrac float64) (value float64, fallbacks, allBelow, picks uint64)
}

// tuneTick is the proxy's control-loop tick: sense the backend scores,
// let a self-tuning policy retune, and record the decision.
func (p *Proxy) tuneTick(now time.Time) []ctl.Decision {
	nowNanos := p.nowNanos()
	// Sense: the mean load score over routable backends — the signal the
	// policies discriminate on, 0 when nothing is routable — and the
	// cluster-wide shed state: the fraction of routable backends whose
	// fresh load signal sheds at least one class.
	var meanScore, shedFrac float64
	if routable := p.routable(nil, 0); len(routable) > 0 {
		shedding := 0
		for _, i := range routable {
			b := p.backends[i]
			meanScore += b.score(nowNanos, p.cfg.SignalStale)
			if sig := b.sig.Load(); sig != nil &&
				nowNanos-b.sigAt.Load() <= p.cfg.SignalStale.Nanoseconds() &&
				len(sig.Shedding) > 0 {
				shedding++
			}
		}
		meanScore /= float64(len(routable))
		shedFrac = float64(shedding) / float64(len(routable))
	}
	d := ctl.Decision{
		Scope:      "theta",
		Controller: p.policy.Name(),
		Sample: core.Sample{
			Time: float64(nowNanos) / 1e9,
			Load: meanScore,
			// RespTime carries the sensed shed fraction — the routing tier
			// has no response-time sample of its own at tune time, and the
			// trace should document the signal that moved θ.
			RespTime: shedFrac,
		},
	}
	if st, ok := p.policy.(selfTuning); ok {
		theta, fallbacks, allBelow, picks := st.Retune(shedFrac)
		d.Limit = theta
		// Completions carries the routing decisions this interval;
		// ConflictRate the fraction that fell back past the threshold —
		// the "pressure" that drives θ up.
		d.Sample.Completions = picks
		if picks > 0 {
			d.Sample.ConflictRate = float64(fallbacks) / float64(picks)
			d.Sample.Perf = float64(allBelow) / float64(picks)
		}
	}
	// Overload detection rides the same tick (obs.go): the conditions it
	// reads are exactly what was sensed above.
	p.observeTuneTick(float64(nowNanos)/1e9, shedFrac, d)
	return []ctl.Decision{d}
}

// proxyCtrlView is the GET /controller document of the routing tier.
type proxyCtrlView struct {
	Policy string `json:"policy"`
	// Theta is the threshold policy's learned load threshold (0 for the
	// other policies).
	Theta               float64 `json:"theta,omitempty"`
	TuneIntervalSeconds float64 `json:"tune_interval_seconds"`
	// Trace is the recorded decision trace, oldest first (populated with
	// ?trace=1).
	Trace []ctl.Decision `json:"trace,omitempty"`
}

// handleController serves the proxy's control-loop view: the policy, the
// learned threshold, and with ?trace=1 the recorded decision trace —
// mirroring loadctld's /controller so the whole stack is inspected the
// same way. The proxy's policy is fixed at startup, so POST is not
// supported here.
func (p *Proxy) handleController(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	view := proxyCtrlView{
		Policy:              p.policy.Name(),
		TuneIntervalSeconds: p.cfg.TuneInterval.Seconds(),
	}
	if th, ok := p.policy.(*threshold); ok {
		view.Theta = th.Theta()
	}
	if r.URL.Query().Get("trace") == "1" {
		view.Trace = p.loop.Trace()
	}
	writeJSON(w, http.StatusOK, view)
}
