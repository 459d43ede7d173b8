package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/loadgen"
	"github.com/tpctl/loadctl/internal/server"
)

// adjEngine is a sleep engine whose service time can be stretched live —
// the "slow" cluster event's lever. A factor of 1 is full speed.
type adjEngine struct {
	base   time.Duration
	factor atomic.Int64
}

func newAdjEngine(base time.Duration) *adjEngine {
	e := &adjEngine{base: base}
	e.factor.Store(1)
	return e
}

func (e *adjEngine) Name() string { return "adjustable-sleep" }

func (e *adjEngine) Exec(ctx context.Context, _ server.TxnSpec) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(e.base * time.Duration(e.factor.Load())):
		return nil
	}
}

// testBackend is one in-process loadctld: a server.Server whose HTTP
// listener can be killed abruptly and rebound on the same address, so the
// backend's counters and gate state survive the outage — exactly what a
// crashed-and-restarted process looks like to the proxy.
type testBackend struct {
	addr string
	srv  *server.Server
	eng  *adjEngine

	mu sync.Mutex
	hs *http.Server
}

func startBackend(t *testing.T, svc time.Duration, pool float64, queueTimeout time.Duration) *testBackend {
	return startBackendWith(t, svc, pool, queueTimeout, nil)
}

// startBackendWith is startBackend with a config hook (tracing knobs,
// reject mode).
func startBackendWith(t *testing.T, svc time.Duration, pool float64, queueTimeout time.Duration, mutate func(*server.Config)) *testBackend {
	t.Helper()
	eng := newAdjEngine(svc)
	cfg := server.Config{
		Controller:   core.NewStatic(pool),
		Engine:       eng,
		Items:        1024,
		Interval:     100 * time.Millisecond,
		QueueTimeout: queueTimeout,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &testBackend{srv: srv, eng: eng}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b.addr = ln.Addr().String()
	b.serve(ln)
	t.Cleanup(func() {
		b.kill()
		srv.Close()
	})
	return b
}

func (b *testBackend) serve(ln net.Listener) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hs = &http.Server{Handler: b.srv.Handler()}
	go func(hs *http.Server) { _ = hs.Serve(b.srv.FrontDoor(ln)) }(b.hs)
}

// kill closes the listener and every open connection — an abrupt crash,
// not a drain. The front door's connections were never http.Server's: the
// server severs those itself.
func (b *testBackend) kill() {
	b.mu.Lock()
	hs := b.hs
	b.mu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
	b.srv.CloseConns()
}

// restart rebinds the original address.
func (b *testBackend) restart() error {
	ln, err := net.Listen("tcp", b.addr)
	if err != nil {
		return err
	}
	b.serve(ln)
	return nil
}

func (b *testBackend) url() string { return "http://" + b.addr }

// fleetActuator maps scenario cluster events onto the in-process fleet
// and records when the kill landed.
type fleetActuator struct {
	backends []*testBackend
	killedAt atomic.Int64 // UnixNano of the kill event
}

func (a *fleetActuator) Apply(_ context.Context, ev loadgen.ClusterEvent) error {
	if ev.Backend < 0 || ev.Backend >= len(a.backends) {
		return fmt.Errorf("no backend %d", ev.Backend)
	}
	b := a.backends[ev.Backend]
	switch ev.Action {
	case "kill":
		a.killedAt.Store(time.Now().UnixNano())
		b.kill()
	case "restart":
		return b.restart()
	case "drain":
		b.srv.BeginDrain()
	case "slow":
		f := int64(ev.Factor)
		if f < 1 {
			f = 1
		}
		b.eng.factor.Store(f)
	default:
		return fmt.Errorf("unknown action %q", ev.Action)
	}
	return nil
}

// clusterScenario is the flash-crowd-with-faults workload both policies
// run: an open-loop arrival spike during [2s, 4s), a steady closed-loop
// population, backend 0 slowed 12× from t=0.8s, backend 2 killed at t=3s
// and restarted at t=4.5s.
func clusterScenario() *loadgen.Scenario {
	return &loadgen.Scenario{
		Name:            "cluster-flash-crowd",
		DurationSeconds: 6,
		Streams: []loadgen.StreamConfig{
			{
				Name: "flash", Mode: "open",
				Rate: &loadgen.ScheduleJSON{Kind: "burst", Value: 150, Mult: 4, At: 2, Dur: 2},
			},
			{
				Name: "base", Mode: "closed", Clients: 12, ThinkMS: 10,
			},
		},
		Cluster: &loadgen.ClusterConfig{Events: []loadgen.ClusterEvent{
			{Action: "slow", Backend: 0, AtSeconds: 0.8, Factor: 12},
			{Action: "kill", Backend: 2, AtSeconds: 3},
			{Action: "restart", Backend: 2, AtSeconds: 4.5},
		}},
	}
}

// probe is one monitor sample of the proxy during a run.
type probe struct {
	at         time.Time
	state2     string
	forwarded2 uint64
	relayedAll uint64
}

// runClusterScenario stands up 3 backends + 1 proxy under the given
// policy, drives the shared scenario through the proxy while sampling
// per-backend routing state, and returns the client report, the final
// proxy snapshot, the monitor trace, the kill timestamp, and the backend
// fleet (for server-side accounting).
func runClusterScenario(t *testing.T, policy string) (loadgen.ScenarioReport, Snapshot, []probe, time.Time, []*testBackend) {
	t.Helper()
	const (
		svc          = 8 * time.Millisecond
		pool         = 8.0
		queueTimeout = 300 * time.Millisecond
		healthEvery  = 250 * time.Millisecond
	)
	backends := []*testBackend{
		startBackend(t, svc, pool, queueTimeout),
		startBackend(t, svc, pool, queueTimeout),
		startBackend(t, svc, pool, queueTimeout),
	}
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url()
	}
	p, err := New(Config{
		Backends:       urls,
		Policy:         policy,
		HealthInterval: healthEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := serveProxy(t, p)

	act := &fleetActuator{backends: backends}
	var (
		rep    loadgen.ScenarioReport
		runErr error
		done   = make(chan struct{})
	)
	go func() {
		defer close(done)
		rep, runErr = loadgen.RunScenarioOpts(context.Background(), clusterScenario(), loadgen.ScenarioOptions{
			URLs:     []string{front.URL},
			Client:   &http.Client{Timeout: 5 * time.Second},
			Actuator: act,
		})
	}()

	var trace []probe
	ticker := time.NewTicker(15 * time.Millisecond)
	defer ticker.Stop()
monitor:
	for {
		select {
		case <-done:
			break monitor
		case <-ticker.C:
			snap := p.SnapshotNow()
			trace = append(trace, probe{
				at:         time.Now(),
				state2:     snap.Backends[2].State,
				forwarded2: snap.Backends[2].Forwarded,
				relayedAll: snap.Totals.Relayed,
			})
		}
	}
	if runErr != nil {
		t.Fatal(runErr)
	}

	// Quiesce: handlers may still be finishing after the last client saw
	// its response; wait for the proxy identity to close exactly.
	var snap Snapshot
	deadline := time.Now().Add(3 * time.Second)
	for {
		snap = p.SnapshotNow()
		tt := snap.Totals
		settled := tt.Requests == tt.Relayed+tt.FastRejectedOverload+tt.FastRejectedNoBackend+tt.Failed+tt.Disconnects
		for _, bs := range snap.Backends {
			if bs.Forwarded != bs.Relayed+bs.Errors || bs.Inflight != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy counters never quiesced: %+v", snap.Totals)
		}
		time.Sleep(10 * time.Millisecond)
	}
	killAt := time.Unix(0, act.killedAt.Load())
	return rep, snap, trace, killAt, backends
}

// TestClusterFlashCrowdKillAndPolicies is the multi-backend acceptance
// test: 1 proxy over 3 in-process backends under a flash crowd with one
// backend slowed and one killed mid-phase. Asserts (a) exact accounting —
// nothing the clients sent is lost between proxy, backends and
// fast-rejects; (b) the threshold policy's p95 beats round-robin's in the
// same scenario; (c) the killed backend's traffic is redistributed within
// one health-check interval.
func TestClusterFlashCrowdKillAndPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: ~12s of wall-clock traffic over two policy runs")
	}

	repRR, snapRR, _, _, _ := runClusterScenario(t, "round-robin")
	repTH, snapTH, trace, killAt, backends := runClusterScenario(t, "threshold")

	// ---- (a) accounting reconciliation, on the threshold run ----
	for name, pair := range map[string]struct {
		rep  loadgen.ScenarioReport
		snap Snapshot
	}{"round-robin": {repRR, snapRR}, "threshold": {repTH, snapTH}} {
		tt := pair.snap.Totals
		// Proxy-internal identity (already quiesced in the helper).
		if tt.Requests != tt.Relayed+tt.FastRejectedOverload+tt.FastRejectedNoBackend+tt.Failed+tt.Disconnects {
			t.Fatalf("%s: proxy identity violated: %+v", name, tt)
		}
		// Client vs proxy: every request the client resolved reached the
		// proxy; only run-end unresolved/transport-error ones may have
		// died on the way.
		sent, unres, errs := pair.rep.Total.Sent, pair.rep.Total.Unresolved, pair.rep.Total.Errors
		if tt.Requests > sent {
			t.Fatalf("%s: proxy saw %d requests, clients sent only %d", name, tt.Requests, sent)
		}
		if tt.Requests < sent-unres-errs {
			t.Fatalf("%s: %d client requests unaccounted (sent=%d unresolved=%d errors=%d, proxy saw %d)",
				name, sent-unres-errs-tt.Requests, sent, unres, errs, tt.Requests)
		}
	}
	// Proxy vs backends (threshold run, whose fleet we kept): everything
	// the proxy relayed was handled by some backend, and every
	// backend-handled request was a proxy forward attempt.
	var backendReqs uint64
	for _, b := range backends {
		backendReqs += b.srv.SnapshotNow(false).Totals.Requests
	}
	var forwardAttempts, relayed uint64
	for _, bs := range snapTH.Backends {
		forwardAttempts += bs.Forwarded
		relayed += bs.Relayed
	}
	if backendReqs < relayed {
		t.Fatalf("backends handled %d requests but proxy relayed %d", backendReqs, relayed)
	}
	if backendReqs > forwardAttempts {
		t.Fatalf("backends handled %d requests, more than the proxy's %d forward attempts", backendReqs, forwardAttempts)
	}
	if relayed != snapTH.Totals.Relayed {
		t.Fatalf("per-backend relays %d != proxy total %d", relayed, snapTH.Totals.Relayed)
	}

	// ---- (b) policy comparison ----
	if repTH.Total.Committed == 0 || repRR.Total.Committed == 0 {
		t.Fatalf("no commits: rr=%d th=%d", repRR.Total.Committed, repTH.Total.Committed)
	}
	if repTH.Total.LatP95 >= repRR.Total.LatP95 {
		t.Fatalf("threshold p95 %.1fms did not beat round-robin p95 %.1fms",
			1e3*repTH.Total.LatP95, 1e3*repRR.Total.LatP95)
	}
	t.Logf("round-robin: committed=%d (%.0f tx/s) timeouts=%d p50=%.1fms p95=%.1fms",
		repRR.Total.Committed, repRR.Total.Throughput, repRR.Total.Timeouts,
		1e3*repRR.Total.LatP50, 1e3*repRR.Total.LatP95)
	t.Logf("threshold:   committed=%d (%.0f tx/s) timeouts=%d p50=%.1fms p95=%.1fms (θ=%.2f)",
		repTH.Total.Committed, repTH.Total.Throughput, repTH.Total.Timeouts,
		1e3*repTH.Total.LatP50, 1e3*repTH.Total.LatP95, snapTH.Threshold)

	// ---- (c) redistribution within one health-check interval ----
	const healthEvery = 250 * time.Millisecond
	var deadAt time.Time
	var fwdAtDeath uint64
	for _, pr := range trace {
		if pr.at.After(killAt) && pr.state2 == StateDead {
			deadAt = pr.at
			fwdAtDeath = pr.forwarded2
			break
		}
	}
	if deadAt.IsZero() {
		t.Fatal("backend 2 was never marked dead after the kill")
	}
	if lag := deadAt.Sub(killAt); lag > healthEvery+100*time.Millisecond {
		t.Fatalf("backend 2 marked dead %.0fms after the kill — more than one health interval (%s)",
			float64(lag)/1e6, healthEvery)
	}
	// Once dead, no new forwards go there until the restart, and the rest
	// of the fleet keeps serving — the traffic moved, it didn't vanish.
	restartAt := killAt.Add(1500 * time.Millisecond) // t=3s kill, t=4.5s restart
	var relayedAtDeath, relayedBeforeRestart uint64
	for _, pr := range trace {
		if pr.at.After(deadAt) && pr.at.Before(restartAt.Add(-100*time.Millisecond)) {
			if pr.forwarded2 > fwdAtDeath+1 {
				t.Fatalf("dead backend 2 still receiving traffic: %d forwards after death (had %d)",
					pr.forwarded2, fwdAtDeath)
			}
			if relayedAtDeath == 0 {
				relayedAtDeath = pr.relayedAll
			}
			relayedBeforeRestart = pr.relayedAll
		}
	}
	if relayedBeforeRestart < relayedAtDeath+50 {
		t.Fatalf("cluster barely served during the outage: %d -> %d relays",
			relayedAtDeath, relayedBeforeRestart)
	}
	// The restarted backend comes back into rotation.
	if st := snapTH.Backends[2].State; st == StateDead {
		t.Fatalf("backend 2 still dead after restart; state %s", st)
	}
}
