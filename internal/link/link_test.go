package link_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// These tests run Transport against the other half of the hop: a real
// server.Server behind its front door on a loopback listener, served the
// way loadctl.Serve serves it.

// hookEngine commits at once, or runs the installed hook: block, sever
// the wire, anything a test needs at execution time.
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

// backend is a server.Server behind its front door.
type backend struct {
	srv  *server.Server
	eng  *hookEngine
	addr string // host:port
	url  string
}

func newBackend(t testing.TB, mutate func(*server.Config)) *backend {
	t.Helper()
	eng := &hookEngine{}
	cfg := server.Config{
		Controller: core.NewStatic(8),
		Engine:     eng,
		Items:      64,
		Interval:   time.Hour, // no control ticks: nothing allocates beside the round trips
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(srv.FrontDoor(ln))
	}()
	t.Cleanup(func() {
		hs.Close()
		<-served
		srv.Close()
	})
	addr := ln.Addr().String()
	return &backend{srv: srv, eng: eng, addr: addr, url: "http://" + addr}
}

func (b *backend) totals() server.Totals { return b.srv.SnapshotNow(false).Totals }

// traced reports whether the backend captured a trace of ID id.
func (b *backend) traced(id uint64) bool {
	for _, tr := range b.srv.Requests().Dump().Ring {
		if tr.ID == reqtrace.FormatID(id) {
			return true
		}
	}
	return false
}

// txnRequest builds a routed POST /txn with the trace header in
// canonical form.
func txnRequest(ctx context.Context, base, query string, body []byte, traceID uint64) *http.Request {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/txn?"+query, nil)
	if err != nil {
		panic(err)
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	if traceID != 0 {
		req.Header[reqtrace.Header] = []string{reqtrace.FormatID(traceID)}
	}
	return req
}

// exchange sends one bodiless, untraced POST /txn over tr.Do to the
// backend at addr and returns the status and body.
func exchange(t *testing.T, tr *link.Transport, addr string) (int, string) {
	t.Helper()
	rep, err := tr.Do(context.Background(), addr, "", nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Status, string(rep.Body)
}

// do runs one round trip and returns the status and body.
func do(t *testing.T, tr http.RoundTripper, req *http.Request) (int, string) {
	t.Helper()
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRoundTripOverLink(t *testing.T) {
	b := newBackend(t, func(c *server.Config) { c.ReqTrace = reqtrace.Config{SampleEvery: 1} })
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()

	for i, c := range []struct {
		query, body, class string
	}{
		{"shape=update&k=4", "", `"class":"update"`},
		{"", `{"shape":"query","k":3}`, `"class":"query"`},
	} {
		id := uint64(0x1234560 + i)
		var body []byte
		if c.body != "" {
			body = []byte(c.body)
		}
		rep, err := tr.Do(context.Background(), b.addr, c.query, body, id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := string(rep.Body)
		if rep.Status != 200 || !strings.Contains(got, `"status":"committed"`) || !strings.Contains(got, c.class) {
			t.Fatalf("request %d: answer %d %q", i, rep.Status, got)
		}
		if rep.ContentType != "application/json" || rep.RetryAfter != "" {
			t.Fatalf("request %d: %+v, want JSON and no Retry-After", i, rep)
		}
		if _, err := loadsig.Parse(rep.Signal); err != nil {
			t.Fatalf("request %d: load signal %q: %v", i, rep.Signal, err)
		}
		if !b.traced(id) {
			t.Fatalf("request %d: the backend has no trace %x", i, id)
		}
	}
	if st := tr.Stats(b.addr); st.Dials != 1 || st.Idle != 1 || b.srv.DoorConns() != 1 {
		t.Fatalf("two sequential requests should share one pooled door connection: %+v, %d at the door", st, b.srv.DoorConns())
	}
}

// cannedAnswer is a door-format answer to every request of
// TestRoundTripAllocs.
const cannedAnswer = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
	"X-Loadctl-Load: status=ok;limit=8\r\nX-Loadctl-Trace: 0000000000001235\r\n" +
	"Content-Length: 22\r\n\r\n{\"status\":\"committed\"}"

// serveCanned answers every bodiless request on every connection to ln
// with cannedAnswer, from a fixed buffer, so the backend allocates
// nothing per request.
func serveCanned(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			buf, answer := make([]byte, link.HeadBudget), []byte(cannedAnswer)
			n := 0
			for {
				m, err := nc.Read(buf[n:])
				if err != nil {
					return
				}
				if n += m; bytes.HasSuffix(buf[:n], []byte("\r\n\r\n")) {
					if _, err := nc.Write(answer); err != nil {
						return
					}
					n = 0
				}
			}
		}()
	}
}

// TestRoundTripAllocs pins the client half of a steady-state exchange
// (Transport.Do, into a reused buffer): the backend is a canned answer
// that allocates nothing, and AllocsPerRun counts every goroutine's
// mallocs. Under a background context — the proxy's front door — the
// exchange allocates nothing; a cancellable one — a request relayed for
// net/http — pays context.AfterFunc's two objects for the cancel to be
// honoured. The door's half is BenchmarkTxnFrontDoor's.
func TestRoundTripAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveCanned(ln)
	addr := ln.Addr().String()
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want float64
	}{{"background", context.Background(), 0}, {"cancellable", cancellable, 2}} {
		var buf []byte
		roundTrip := func() {
			rep, err := tr.Do(c.ctx, addr, "shape=update&k=4", nil, 0x1235, nil, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			if rep.Status != http.StatusOK {
				t.Fatalf("%s: status %d", c.name, rep.Status)
			}
			buf = rep.Body
		}
		roundTrip() // dial
		if n := testing.AllocsPerRun(500, roundTrip); n != c.want {
			t.Fatalf("%s: round trip allocates %v per op, want %v", c.name, n, c.want)
		}
	}
}

func TestRefusedDialIsADialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr := link.NewTransport()
	_, err = tr.Do(context.Background(), addr, "", nil, 1, nil, nil)
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("refused dial surfaced as %T %v, want *net.OpError{Op: dial}", err, err)
	}
}

func TestDeadIdleConnectionIsReplacedSilently(t *testing.T) {
	b := newBackend(t, nil)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	for i := 0; i < 2; i++ {
		if code, body := exchange(t, tr, b.addr); code != http.StatusOK {
			t.Fatalf("request %d: %d %q", i, code, body)
		}
		b.srv.CloseConns() // the backend drops its idle connections
		waitFor(t, "backend connections gone", func() bool { return b.srv.DoorConns() == 0 })
	}
	if st := tr.Stats(b.addr); st.Dials != 2 || b.eng.execs.Load() != 2 {
		t.Fatalf("want a silent re-dial: %+v, %d executions", st, b.eng.execs.Load())
	}
}

func TestBreakAfterWriteIsNotADialError(t *testing.T) {
	b := newBackend(t, nil)
	b.eng.hook(func(context.Context) error {
		b.srv.CloseConns() // the request is at the backend; its answer never leaves
		return nil
	})
	tr := link.NewTransport()
	_, err := tr.Do(context.Background(), b.addr, "", nil, 1, nil, nil)
	if err == nil {
		t.Fatal("a connection cut before the answer must fail the round trip")
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		t.Fatalf("post-write failure %v looks like a dial error: the proxy would replay the transaction", err)
	}
	if st := tr.Stats(b.addr); st.Idle != 0 {
		t.Fatalf("broken connection went back to the pool: %+v", st)
	}
}

// parked is a backend with one admission slot, taken by a transaction
// parked until release is closed; the next request queues.
func parked(t *testing.T) (b *backend, release chan struct{}, holder chan int) {
	t.Helper()
	b = newBackend(t, func(c *server.Config) {
		c.Controller = core.NewStatic(1)
		c.QueueTimeout = time.Minute
	})
	release = make(chan struct{})
	b.eng.hook(func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	holder = make(chan int, 1)
	go func() {
		resp, err := http.Post(b.url+"/txn", "application/json", nil)
		if err != nil {
			holder <- -1
			return
		}
		resp.Body.Close()
		holder <- resp.StatusCode
	}()
	waitFor(t, "the holder to be admitted", func() bool { return b.eng.execs.Load() == 1 })
	return b, release, holder
}

// TestCancelWhileWaiting: the caller's cancel closes the connection, the
// door's close-watcher sees it and frees the queue slot, and the
// connection never returns to the pool.
func TestCancelWhileWaiting(t *testing.T) {
	b, release, holder := parked(t)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := tr.Do(ctx, b.addr, "", nil, 1, nil, nil)
		errc <- err
	}()
	waitFor(t, "request queued at the backend", func() bool { return b.srv.SnapshotNow(false).Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round trip returned %v", err)
	}
	waitFor(t, "backend to notice the hang-up", func() bool {
		snap := b.srv.SnapshotNow(false)
		return snap.Queued == 0 && snap.Totals.Disconnects == 1
	})
	if st := tr.Stats(b.addr); st.Idle != 0 {
		t.Fatalf("aborted connection was pooled: %+v", st)
	}
	close(release)
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("holder answered %d", code)
	}
}

// TestWatchCloseStopKeepsConnection: a request whose queue wait ended in
// admission (its close-watcher stopped, not fired) leaves the connection
// usable for the next request.
func TestWatchCloseStopKeepsConnection(t *testing.T) {
	b, release, holder := parked(t)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	first := make(chan int, 1)
	go func() {
		rep, err := tr.Do(context.Background(), b.addr, "", nil, 1, nil, nil)
		if err != nil {
			first <- -1
			return
		}
		first <- rep.Status
	}()
	waitFor(t, "request parked behind its watcher", func() bool { return b.srv.SnapshotNow(false).Queued == 1 })
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("request released from its wait answered %d", code)
	}
	<-holder
	if code, body := exchange(t, tr, b.addr); code != http.StatusOK {
		t.Fatalf("next request on the connection: %d %q", code, body)
	}
	if st := tr.Stats(b.addr); st.Dials != 1 || b.totals().Disconnects != 0 {
		t.Fatalf("stopped watcher cost the connection: %+v, %d disconnects", st, b.totals().Disconnects)
	}
}

// TestInterruptEndsIdleConnection: a drain ends an idle hop connection at
// once, and the transport notices before it writes the next request.
func TestInterruptEndsIdleConnection(t *testing.T) {
	b := newBackend(t, nil)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	if code, _ := exchange(t, tr, b.addr); code != http.StatusOK {
		t.Fatalf("answer %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := b.srv.DrainConns(ctx); err != nil || b.srv.DoorConns() != 0 {
		t.Fatalf("drain of an idle connection: %v, %d left", err, b.srv.DoorConns())
	}
	// The drain also ends connections accepted after it, before their first
	// request: the new dial's request fails, and it was written.
	_, err := tr.Do(context.Background(), b.addr, "", nil, 1, nil, nil)
	var op *net.OpError
	if err == nil || errors.As(err, &op) && op.Op == "dial" {
		t.Fatalf("request to a drained backend: %v", err)
	}
	if st := tr.Stats(b.addr); st.Dials != 2 || st.Idle != 0 {
		t.Fatalf("the drained connection was reused: %+v", st)
	}
}

// TestUnlinkableRequestsUseHTTP: RoundTrip is the HTTP fallback for every
// request — what the door would not take raw (a body over MaxBody or of
// unknown length, a head over HeadBudget, a probe) and a routed POST /txn
// that Fits alike — and dials no hop connection.
func TestUnlinkableRequestsUseHTTP(t *testing.T) {
	b := newBackend(t, nil)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()

	big := txnRequest(context.Background(), b.url, "k=2", make([]byte, link.MaxBody+1), 1)
	chunked := txnRequest(context.Background(), b.url, "k=2", []byte(`{"k":3}`), 1)
	chunked.ContentLength = -1
	long := txnRequest(context.Background(), b.url, "k=2&pad="+strings.Repeat("x", link.HeadBudget), nil, 1)
	health, _ := http.NewRequest(http.MethodGet, b.url+"/healthz", nil)
	for _, c := range []struct {
		name string
		req  *http.Request
		want int
	}{{"big body", big, 400}, {"chunked", chunked, 200}, {"long query", long, 200}, {"probe", health, 200}} {
		if code, body := do(t, tr, c.req); code != c.want {
			t.Fatalf("%s: %d %q, want %d", c.name, code, body, c.want)
		}
	}
	if st := tr.Stats(b.addr); st.Dials != 0 || b.eng.execs.Load() != 2 || b.srv.DoorConns() != 0 {
		t.Fatalf("%+v, %d transactions, %d door connections; want no hop dial, 2 over HTTP and none held by the door",
			st, b.eng.execs.Load(), b.srv.DoorConns())
	}
	if code, body := do(t, tr, txnRequest(context.Background(), b.url, "k=2", nil, 1)); code != http.StatusOK {
		t.Fatalf("a request that Fits: %d %q", code, body)
	}
	if st := tr.Stats(b.addr); st.Dials != 0 || b.eng.execs.Load() != 3 {
		t.Fatalf("a request that Fits, through RoundTrip: %+v, %d transactions; want no hop dial", st, b.eng.execs.Load())
	}
}
