package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// These tests pin the link's semantics where they matter: seen from the
// proxy's handler, against real server.Server backends, with the default
// (negotiated) transport.

// hookEngine runs fn on every Exec: block, sever the wire, or nothing.
type hookEngine struct {
	execs atomic.Uint64
	fn    atomic.Pointer[func(ctx context.Context) error]
}

func (e *hookEngine) Name() string { return "hook" }

func (e *hookEngine) hook(fn func(ctx context.Context) error) { e.fn.Store(&fn) }

func (e *hookEngine) Exec(ctx context.Context, _ server.TxnSpec) error {
	e.execs.Add(1)
	if fn := e.fn.Load(); fn != nil {
		return (*fn)(ctx)
	}
	return nil
}

// linkBackend is a real server.Server on an httptest listener.
type linkBackend struct {
	srv *server.Server
	ts  *httptest.Server
	eng *hookEngine
}

func startLinkBackend(t *testing.T, mutate func(*server.Config)) *linkBackend {
	t.Helper()
	eng := &hookEngine{}
	cfg := server.Config{
		Controller: core.NewStatic(8),
		Engine:     eng,
		Items:      64,
		Interval:   50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := &linkBackend{srv: srv, eng: eng, ts: httptest.NewServer(srv.Handler())}
	t.Cleanup(func() {
		srv.Close()
		b.ts.Close()
	})
	return b
}

func (b *linkBackend) totals() server.Totals { return b.srv.SnapshotNow(false).Totals }

func passiveProxy(t *testing.T, cfg Config) (*Proxy, *httptest.Server) {
	t.Helper()
	cfg.Policy = "round-robin"
	cfg.HealthInterval = time.Hour // data path only
	cfg.SignalStale = time.Hour
	cfg.ReqTrace = reqtrace.Config{SampleEvery: 1}
	p := newTestProxy(t, cfg)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts
}

func assertDoors(t *testing.T, p *Proxy) {
	t.Helper()
	tot := p.SnapshotNow().Totals
	if doors := tot.Relayed + tot.FastRejectedOverload + tot.FastRejectedNoBackend + tot.Failed + tot.Disconnects; tot.Requests != doors {
		t.Fatalf("requests %d != relayed+fast_rejects+failed+disconnects %d: %+v", tot.Requests, doors, tot)
	}
}

func TestLinkIsTheDefaultWire(t *testing.T) {
	b := startLinkBackend(t, nil)
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})
	if w := p.SnapshotNow().Backends[0].Wire; w != WireHTTP {
		t.Fatalf("wire before any routed transaction = %q, want http", w)
	}
	for i := 0; i < 5; i++ {
		if resp := postTxn(t, ts, "?shape=update&k=2"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	snap := p.SnapshotNow()
	if snap.Backends[0].Wire != WireLink || snap.LinkDials != 1 || snap.LinkIdleConns != 1 {
		t.Fatalf("five sequential requests: wire %q, %d dials, %d idle; want link, 1, 1", snap.Backends[0].Wire, snap.LinkDials, snap.LinkIdleConns)
	}
	if got := b.srv.SnapshotNow(false); got.LinkConns != 1 || got.Totals.Commits != 5 {
		t.Fatalf("backend: %d link conns, %d commits; want 1, 5", got.LinkConns, got.Totals.Commits)
	}
	if snap.Backends[0].Signal == nil {
		t.Fatal("load signal did not ride the link")
	}
	assertProxyExportsAgree(t, p)
	assertDoors(t, p)
}

// TestLinkRefusedDialFailsOver: a refused dial on the link is the same
// retriable dial error it was over HTTP, and the retry keeps the trace ID.
func TestLinkRefusedDialFailsOver(t *testing.T) {
	b1 := startLinkBackend(t, func(c *server.Config) { c.ReqTrace = reqtrace.Config{SampleEvery: 1} })
	p, ts := passiveProxy(t, Config{Backends: []string{deadAddr(t), b1.ts.URL}})

	const id = "00000000000000ab"
	if resp := postTraced(t, ts, id); resp.StatusCode != http.StatusOK {
		t.Fatalf("failover answer: status %d, want 200", resp.StatusCode)
	}
	snap := p.SnapshotNow()
	if snap.Totals.Retries != 1 || snap.Totals.Failed != 0 || snap.Backends[0].State != StateDead || snap.Backends[1].Wire != WireLink {
		t.Fatalf("after failover: %+v, backend 0 %s, backend 1 wire %s", snap.Totals, snap.Backends[0].State, snap.Backends[1].Wire)
	}
	tr := findTrace(p.Requests().Dump().Ring, id)
	if tr == nil || tr.Status != reqtrace.StatusRelayed {
		t.Fatalf("proxy trace %s: %+v", id, tr)
	}
	var details []string
	for _, sp := range tr.Spans {
		if sp.Name == reqtrace.SpanRelay {
			details = append(details, sp.Detail)
		}
	}
	if len(details) != 2 || details[0] != reqtrace.DetailDialError || details[1] != reqtrace.DetailRelayed {
		t.Fatalf("relay spans %v, want [dial-error relayed]", details)
	}
	if findTrace(b1.srv.Requests().Dump().Ring, id) == nil {
		t.Fatalf("backend 1 has no trace %s: the ID did not cross the link", id)
	}
	assertDoors(t, p)
}

// TestLinkIdleConnectionsClosedByBackend: a backend that dropped its idle
// link connections (restart, drain) is re-dialled before a byte of the
// next request is written — no 502, no dead mark.
func TestLinkIdleConnectionsClosedByBackend(t *testing.T) {
	b := startLinkBackend(t, nil)
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	b.srv.CloseConns()
	waitFor(t, "backend link connections gone", func() bool { return b.srv.LinkConns() == 0 })
	if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the backend closed its idle connections: %d, want 200", resp.StatusCode)
	}
	snap := p.SnapshotNow()
	if snap.Totals.Failed != 0 || snap.Totals.Retries != 0 || snap.Backends[0].State != StateUp || snap.LinkDials != 2 {
		t.Fatalf("want a silent re-dial: %+v, state %s, %d dials", snap.Totals, snap.Backends[0].State, snap.LinkDials)
	}
}

// TestLinkBreakAfterWriteNotReplayed: the connection breaks once the
// request frame is at the backend. The transaction ran there, so the
// proxy must answer 502, end the trace in an error span, and not run it
// again on the other backend: the fleet's commit total stays at one.
func TestLinkBreakAfterWriteNotReplayed(t *testing.T) {
	b0 := startLinkBackend(t, nil)
	b1 := startLinkBackend(t, nil)
	b0.eng.hook(func(context.Context) error {
		b0.srv.CloseConns() // the wire breaks mid-transaction
		return nil
	})
	p, ts := passiveProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})

	const id = "00000000000000cd"
	if resp := postTraced(t, ts, id); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("post-write failure: status %d, want 502", resp.StatusCode)
	}
	waitFor(t, "backend 0 to finish its transaction", func() bool { return b0.totals().Commits == 1 })
	if commits := b0.totals().Commits + b1.totals().Commits; commits != 1 || b1.eng.execs.Load() != 0 {
		t.Fatalf("fleet committed %d (backend 1 executed %d): the transaction ran twice", commits, b1.eng.execs.Load())
	}
	snap := p.SnapshotNow()
	if snap.Totals.Failed != 1 || snap.Totals.Retries != 0 || snap.Backends[0].State != StateDead {
		t.Fatalf("totals %+v, backend 0 %s", snap.Totals, snap.Backends[0].State)
	}
	tr := findTrace(p.Requests().Dump().Ring, id)
	if tr == nil || tr.Status != reqtrace.StatusFailed {
		t.Fatalf("proxy trace %s: %+v", id, tr)
	}
	if last := tr.Spans[len(tr.Spans)-1]; last.Name != reqtrace.SpanRelay || last.Detail != reqtrace.DetailError {
		t.Fatalf("trace does not end in a terminal error relay span: %+v", tr.Spans)
	}
	assertDoors(t, p)
}

// TestLinkCancelWhileQueued: a client that gives up while its request
// waits in the backend's admission queue frees the queue slot — the
// backend learns of it from the closed connection, with nobody reading
// the socket — and each tier counts one disconnect.
func TestLinkCancelWhileQueued(t *testing.T) {
	release := make(chan struct{})
	b := startLinkBackend(t, func(c *server.Config) {
		c.Controller = core.NewStatic(1)
		c.QueueTimeout = time.Minute
	})
	b.eng.hook(func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})

	holder := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/txn", "application/json", nil)
		if err != nil {
			holder <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		holder <- resp.StatusCode
	}()
	waitFor(t, "the holder to be admitted", func() bool { return b.eng.execs.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/txn", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		queued <- err
	}()
	waitFor(t, "the second request to queue", func() bool { return b.srv.SnapshotNow(false).Queued == 1 })
	cancel()
	if err := <-queued; err == nil {
		t.Fatal("cancelled request got an answer")
	}
	waitFor(t, "the queue slot to be freed and the disconnect counted", func() bool {
		snap := b.srv.SnapshotNow(false)
		return snap.Queued == 0 && snap.Totals.Disconnects == 1
	})
	waitFor(t, "the proxy to count the disconnect", func() bool { return p.SnapshotNow().Totals.Disconnects == 1 })

	close(release)
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("holder answered %d", code)
	}
	tot := b.totals()
	if tot.Commits != 1 || tot.Timeouts != 0 || tot.Requests != 2 || b.eng.execs.Load() != 1 {
		t.Fatalf("backend totals %+v after %d executions; want 2 requests = 1 commit + 1 disconnect", tot, b.eng.execs.Load())
	}
	if snap := p.SnapshotNow(); snap.Backends[0].State != StateUp {
		t.Fatalf("a client's cancel marked the backend %s", snap.Backends[0].State)
	}
	assertDoors(t, p)
}

// TestLinkHTTPOnlyBackendFallsBack: a backend that answers the upgrade in
// plain HTTP keeps being served over HTTP, and every request still leaves
// through exactly one door.
func TestLinkHTTPOnlyBackendFallsBack(t *testing.T) {
	b0 := newStub(t, okSignal())
	b1 := startLinkBackend(t, nil)
	p, ts := passiveProxy(t, Config{Backends: []string{b0.ts.URL, b1.ts.URL}})
	for i := 0; i < 10; i++ {
		if resp := postTxn(t, ts, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	snap := p.SnapshotNow()
	if snap.Backends[0].Wire != WireHTTP || snap.Backends[1].Wire != WireLink {
		t.Fatalf("wires %q/%q, want http/link", snap.Backends[0].Wire, snap.Backends[1].Wire)
	}
	if b0.txns.Load() != 5 || b1.totals().Commits != 5 || snap.Totals.Relayed != 10 || snap.Totals.Retries != 0 {
		t.Fatalf("stub served %d, link backend %d, totals %+v", b0.txns.Load(), b1.totals().Commits, snap.Totals)
	}
	assertProxyExportsAgree(t, p)
	assertDoors(t, p)
}

// TestUncontrolledBackendIsRoutable: a -controller none backend has a +Inf
// limit. Its /healthz must still be a parseable signal so the health loop
// keeps it alive, and it serves over the link like any other.
func TestUncontrolledBackendIsRoutable(t *testing.T) {
	b := startLinkBackend(t, func(c *server.Config) { c.Controller = core.NoControl() })
	p := newTestProxy(t, Config{Backends: []string{b.ts.URL}, DeadAfter: 1})
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	waitFor(t, "a health sweep to ingest the signal", func() bool {
		bs := p.SnapshotNow().Backends[0]
		return bs.HealthChecks >= 2 && bs.Signal != nil
	})
	bs := p.SnapshotNow().Backends[0]
	if bs.State != StateUp || bs.HealthFails != 0 || !math.IsInf(bs.Signal.Limit, 1) {
		t.Fatalf("uncontrolled backend: state %s, %d failed probes, limit %v", bs.State, bs.HealthFails, bs.Signal.Limit)
	}
	if resp := postTxn(t, ts, "?k=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed transaction: %d", resp.StatusCode)
	}
	if w := p.SnapshotNow().Backends[0].Wire; w != WireLink {
		t.Fatalf("wire %q, want link", w)
	}
	// The proxy's own JSON snapshot carries that +Inf signal and must
	// still encode.
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || len(snap.Backends) != 1 {
		t.Fatalf("proxy snapshot with an uncontrolled backend: %v, %+v", err, snap)
	}
	if !math.IsInf(snap.Backends[0].Signal.Limit, 1) {
		t.Fatalf("signal limit decoded as %v, want +Inf", snap.Backends[0].Signal.Limit)
	}
}

// TestHealthzUnparsableBodyIsAlive: a backend that answers /healthz 200
// with an empty or garbled body is up with its load unknown — not on its
// way to DeadAfter.
func TestHealthzUnparsableBodyIsAlive(t *testing.T) {
	for name, body := range map[string]string{"empty": "", "garbled": "{not json"} {
		t.Run(name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, body) })
			ts := httptest.NewServer(mux)
			defer ts.Close()
			p := newTestProxy(t, Config{Backends: []string{ts.URL}, DeadAfter: 1})
			waitFor(t, "a few health sweeps", func() bool { return p.SnapshotNow().Backends[0].HealthChecks >= 3 })
			bs := p.SnapshotNow().Backends[0]
			if bs.State != StateUp || bs.HealthFails != 0 || bs.Signal != nil {
				t.Fatalf("state %s, %d failed probes, signal %+v; want up, 0, none", bs.State, bs.HealthFails, bs.Signal)
			}
		})
	}
}
