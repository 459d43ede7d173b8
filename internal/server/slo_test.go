package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/loadgen"
)

// newSLOServer builds a server in slo control mode: interactive carries a
// p95 target, batch is untargeted (static at its seed share).
func newSLOServer(t *testing.T, limit float64, target float64, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, limit, func(c *Config) {
		c.Classes = []ClassConfig{
			{Name: "interactive", Weight: 3, Priority: 0, SLOTarget: target},
			{Name: "batch", Weight: 1, Priority: 2},
		}
		c.ClassControl = "slo"
		if mutate != nil {
			mutate(c)
		}
	})
	return s, ts
}

func TestSLOModeConstructionAndView(t *testing.T) {
	_, ts := newSLOServer(t, 40, 0.1, nil)

	var view struct {
		Mode    string  `json:"mode"`
		Limit   float64 `json:"limit"`
		Classes []struct {
			Class      string  `json:"class"`
			Controller string  `json:"controller"`
			Limit      float64 `json:"limit"`
			SLOTarget  float64 `json:"slo_target"`
		} `json:"classes"`
	}
	getJSON(t, ts.URL+"/controller", &view)
	if view.Mode != "slo" {
		t.Fatalf("mode = %q, want slo", view.Mode)
	}
	// The switch is capacity-neutral: class limits seed at the weighted
	// shares of the pool (30 + 10 of 40).
	if view.Limit != 40 {
		t.Fatalf("total limit = %v, want 40", view.Limit)
	}
	byName := map[string]struct {
		ctrl   string
		limit  float64
		target float64
	}{}
	for _, c := range view.Classes {
		byName[c.Class] = struct {
			ctrl   string
			limit  float64
			target float64
		}{c.Controller, c.Limit, c.SLOTarget}
	}
	ic := byName["interactive"]
	if ic.ctrl != "slo-p" || ic.limit != 30 || ic.target != 0.1 {
		t.Fatalf("interactive row = %+v, want slo-p/30/0.1", ic)
	}
	bc := byName["batch"]
	if !strings.HasPrefix(bc.ctrl, "static") || bc.limit != 10 || bc.target != 0 {
		t.Fatalf("batch row = %+v, want static/10/0", bc)
	}

	// The metrics snapshot tells the same story.
	snap := getSnapshot(t, ts.URL)
	if snap.Mode != "slo" {
		t.Fatalf("snapshot mode = %q, want slo", snap.Mode)
	}
	for _, c := range snap.Classes {
		want := 0.0
		if c.Name == "interactive" {
			want = 0.1
		}
		if c.SLOTarget != want {
			t.Fatalf("snapshot class %s slo_target = %v, want %v", c.Name, c.SLOTarget, want)
		}
	}
}

func TestSLOModeRejectsUntargetedConfig(t *testing.T) {
	store := kv.NewStore(64)
	_, err := New(Config{
		Controller:   core.NewStatic(8),
		Engine:       NewOCC(store),
		Items:        store.Size(),
		ClassControl: "slo",
		Classes: []ClassConfig{
			{Name: "a", Weight: 1},
			{Name: "b", Weight: 1},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "positive SLO target") {
		t.Fatalf("ClassControl slo without targets: err = %v, want target complaint", err)
	}
	if _, err := New(Config{
		Controller: core.NewStatic(8),
		Engine:     NewOCC(store),
		Items:      store.Size(),
		Classes:    []ClassConfig{{Name: "a", Weight: 1, SLOTarget: -0.5}},
	}); err == nil || !strings.Contains(err.Error(), "invalid SLO target") {
		t.Fatalf("negative SLO target: err = %v, want validation error", err)
	}
}

func TestControllerLiveSwitchToSLO(t *testing.T) {
	_, ts := newClassServer(t, 60, nil)

	// Switch into slo mode with targets supplied in the request.
	code, body := postController(t, ts.URL, `{"scope":"slo","controller":"slo-p","targets":{"interactive":0.05}}`)
	if code != http.StatusOK {
		t.Fatalf("slo switch: %d %s", code, body)
	}
	var view struct {
		Mode    string `json:"mode"`
		Classes []struct {
			Class      string  `json:"class"`
			Controller string  `json:"controller"`
			SLOTarget  float64 `json:"slo_target"`
		} `json:"classes"`
	}
	getJSON(t, ts.URL+"/controller", &view)
	if view.Mode != "slo" {
		t.Fatalf("mode after switch = %q, want slo", view.Mode)
	}
	for _, c := range view.Classes {
		if c.Class == "interactive" {
			if c.Controller != "slo-p" || c.SLOTarget != 0.05 {
				t.Fatalf("interactive after switch: %+v", c)
			}
		} else if !strings.HasPrefix(c.Controller, "static") {
			t.Fatalf("untargeted class %s controller = %q, want static", c.Class, c.Controller)
		}
	}

	// Targets persist on the server: a second slo switch needs none.
	if code, body := postController(t, ts.URL, `{"scope":"slo"}`); code != http.StatusOK {
		t.Fatalf("re-switch without targets: %d %s", code, body)
	}

	// Leaving for pool mode drops the slo label.
	if code, body := postController(t, ts.URL, `{"scope":"pool","controller":"static","initial":48}`); code != http.StatusOK {
		t.Fatalf("pool switch: %d %s", code, body)
	}
	getJSON(t, ts.URL+"/controller", &view)
	if view.Mode != "pool" {
		t.Fatalf("mode after pool switch = %q, want pool", view.Mode)
	}

	// And perclass mode is perclass, not slo, even with targets set.
	if code, body := postController(t, ts.URL, `{"scope":"perclass","controller":"static"}`); code != http.StatusOK {
		t.Fatalf("perclass switch: %d %s", code, body)
	}
	getJSON(t, ts.URL+"/controller", &view)
	if view.Mode != "perclass" {
		t.Fatalf("mode after perclass switch = %q, want perclass", view.Mode)
	}
}

// loadEngine is the convergence test's plant: every transaction dwells
// for perSlot times the number of concurrently executing transactions, so
// response time is a monotone function of admitted concurrency — the
// relationship the SLO regulator assumes. (A fixed delay would make
// latency independent of the limit and leave the controller nothing to
// regulate.)
type loadEngine struct {
	inner   Engine
	perSlot time.Duration
	active  atomic.Int64
}

func (e *loadEngine) Name() string { return e.inner.Name() + "+load" }

func (e *loadEngine) Exec(ctx context.Context, spec TxnSpec) error {
	n := e.active.Add(1)
	defer e.active.Add(-1)
	select {
	case <-time.After(time.Duration(n) * e.perSlot):
	case <-ctx.Done():
		return ctx.Err()
	}
	return e.inner.Exec(ctx, spec)
}

// TestSLOFlashCrowdConvergence is the acceptance experiment: a flash
// crowd (closed-loop interactive saturation plus a batch wall) against a
// load-dependent plant, with the interactive class regulated to a 100ms
// p95 target. The SLO loop must (1) bring interactive's measured interval
// p95 inside the target band and hold it there, (2) shed batch surplus,
// and (3) leave a decision trace that replays exactly through a fresh
// controller.
func TestSLOFlashCrowdConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run takes ~6s")
	}
	const (
		pool    = 40.0
		target  = 0.100
		perSlot = 2 * time.Millisecond
		// Band: the log-bucketed quantile is only ±~10% accurate and moves
		// in ×2^¼ steps, so the regulator is asked to land within roughly
		// one bucket of the target, not on it.
		bandLo = 0.5 * target
		bandHi = 1.7 * target
	)
	store := kv.NewStore(4096)
	eng := &loadEngine{inner: NewOCC(store), perSlot: perSlot}
	s, err := New(Config{
		Controller: core.NewStatic(pool),
		Engine:     eng,
		Items:      store.Size(),
		Interval:   100 * time.Millisecond,
		Classes: []ClassConfig{
			// Query-shaped on both sides: the plant is the load-dependent
			// dwell, and CC aborts would only blur the latency signal.
			{Name: "interactive", Weight: 3, Priority: 0, Shape: "query", K: 2, SLOTarget: target},
			{Name: "batch", Weight: 1, Priority: 2, Shape: "query", K: 8},
		},
		ClassControl: "slo",
		Reject:       true, // shed instead of queue: latency is pure plant
		TraceLen:     8192, // must not wrap: the replay starts from genesis
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	sc := &loadgen.Scenario{
		Name:            "slo-flash-crowd",
		DurationSeconds: 6,
		Streams: []loadgen.StreamConfig{
			// 64 interactive terminals with no think time: the class holds
			// whatever limit the regulator grants, so measured p95 tracks
			// perSlot × (total active) and the fixed point sits where the
			// regulated limit makes that equal the target.
			{Class: "interactive", Mode: "closed", Clients: 64, ThinkMS: 1},
			// The batch wall arrives at t=2s: an open-loop flood far above
			// the class's static 10-slot share. Under Reject the surplus
			// must shed as 429s.
			{Class: "batch", Mode: "open",
				Rate: &loadgen.ScheduleJSON{Kind: "jump", At: 2, Before: 5, After: 200}},
		},
	}
	rep, err := loadgen.RunScenario(context.Background(), sc, loadgen.ScenarioOptions{
		URLs: []string{ts.URL}, Client: &http.Client{Timeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scenario: %v", rep)

	// (2) Batch shed the surplus; interactive kept committing throughout.
	var inter, batch loadgen.StreamReport
	for _, sr := range rep.Streams {
		switch sr.Class {
		case "interactive":
			inter = sr
		case "batch":
			batch = sr
		}
	}
	if batch.Rejected == 0 {
		t.Fatalf("batch wall was never shed: %+v", batch.Report)
	}
	if inter.Committed == 0 {
		t.Fatal("interactive committed nothing")
	}

	// (1) Convergence: over the second half of the run, the regulated
	// class's measured interval p95 sits inside the target band. The
	// trace records exactly what the controller saw each interval, so it
	// is also the measurement record.
	trace := fetchTrace(t, ts.URL)
	var interDecisions []ctl.Decision
	for _, d := range trace {
		if d.Scope == "interactive" {
			interDecisions = append(interDecisions, d)
		}
	}
	if len(interDecisions) < 20 {
		t.Fatalf("only %d interactive decisions in a 6s run", len(interDecisions))
	}
	tail := interDecisions[len(interDecisions)/2:]
	inBand, nonzero := 0, 0
	for _, d := range tail {
		if d.Sample.RespP95 <= 0 {
			continue
		}
		nonzero++
		if d.Sample.RespP95 >= bandLo && d.Sample.RespP95 <= bandHi {
			inBand++
		}
	}
	if nonzero == 0 {
		t.Fatal("no interactive interval closed with completions in the settled half")
	}
	if frac := float64(inBand) / float64(nonzero); frac < 0.7 {
		t.Fatalf("interactive p95 in [%.0fms, %.0fms] for only %.0f%% of settled intervals (want ≥ 70%%): %s",
			1e3*bandLo, 1e3*bandHi, 100*frac, fmtP95s(tail))
	}

	// (3) Replay exactness: a fresh controller with the same tuning,
	// seeded the way the slo install seeded the live one (the class's
	// weighted share of the pool), reproduces every recorded limit.
	if trace[0].Seq != 1 {
		t.Fatalf("trace lost its head (first seq %d): cannot replay from genesis", trace[0].Seq)
	}
	seed := pool * 3.0 / 4.0
	fresh, err := makeSLOProportional(target, seed, core.DefaultBounds())
	if err != nil {
		t.Fatal(err)
	}
	replayed := ctl.Replay(fresh, interDecisions)
	for i, d := range interDecisions {
		if replayed[i] != d.Limit {
			t.Fatalf("decision %d (t=%.3f): replayed limit %v != recorded %v",
				i, d.Sample.Time, replayed[i], d.Limit)
		}
	}
}

func fmtP95s(ds []ctl.Decision) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%.0fms ", 1e3*d.Sample.RespP95)
	}
	return b.String()
}
