package link

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// echo is a link.Handler that answers like a healthy backend and records
// what it was asked: the /txn-sized canned answer the hop benchmark uses.
type echo struct {
	signal atomic.Pointer[string]
	calls  atomic.Uint64
	// hold, when non-nil, parks the handler behind a close-watcher until
	// the caller hangs up or release is closed.
	hold    chan struct{}
	hungUp  atomic.Uint64
	lastReq atomic.Pointer[Request]
}

var cannedBody = []byte(`{"status":"committed","class":"update","admission_class":"default","attempts":1,"latency_ms":0.0123}` + "\n")

func (e *echo) ServeLink(req *Request, frame []byte) ([]byte, bool) {
	e.calls.Add(1)
	e.lastReq.Store(&Request{TraceID: req.TraceID, Query: strings.Clone(req.Query), Body: bytes.Clone(req.Body)})
	if e.hold != nil {
		ctx, cancel := context.WithCancel(context.Background())
		stop := req.WatchClose(cancel)
		select {
		case <-ctx.Done():
			e.hungUp.Add(1)
			stop()
			cancel()
			return frame, false // nothing appended: no answer owed
		case <-e.hold:
		}
		stop()
		cancel()
	}
	resp := Response{Status: http.StatusOK, ContentType: "application/json", Body: cannedBody}
	if s := e.signal.Load(); s != nil {
		resp.Signal = *s
	}
	if req.TraceID%2 == 0 {
		resp.TraceID = req.TraceID
	}
	frame, _ = AppendResponse(frame, &resp)
	return frame, true
}

// linkBackend is an httptest server that upgrades /link and serves it with
// h, tracking its connections the way server.Server does.
type linkBackend struct {
	ts    *httptest.Server
	mu    sync.Mutex
	conns map[*ServerConn]struct{}
}

func newLinkBackend(t testing.TB, h Handler) *linkBackend {
	t.Helper()
	b := &linkBackend{conns: map[*ServerConn]struct{}{}}
	mux := http.NewServeMux()
	mux.HandleFunc(Path, func(w http.ResponseWriter, r *http.Request) {
		c, err := Accept(w, r)
		if err != nil {
			return
		}
		b.mu.Lock()
		b.conns[c] = struct{}{}
		b.mu.Unlock()
		_ = c.Serve(h)
		b.mu.Lock()
		delete(b.conns, c)
		b.mu.Unlock()
	})
	b.ts = httptest.NewServer(mux)
	t.Cleanup(func() {
		b.sever()
		b.ts.Close()
	})
	return b
}

func (b *linkBackend) sever() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for c := range b.conns {
		c.Close()
	}
}

func (b *linkBackend) open() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.conns)
}

func (b *linkBackend) host() string { return strings.TrimPrefix(b.ts.URL, "http://") }

// txnRequest builds the request cluster.forward would: POST /txn with the
// trace header in canonical form.
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
	e := &echo{}
	sig := "status=ok;limit=8;active=1;queued=0;util=0.125"
	e.signal.Store(&sig)
	b := newLinkBackend(t, e)
	tr := NewTransport()
	defer tr.CloseIdleConnections()

	for i, body := range [][]byte{nil, []byte(`{"k":3}`)} {
		id := uint64(0x1234560 + i) // even, then odd: echoed, then not
		resp, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "shape=update&k=4", body, id))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || !bytes.Equal(got, cannedBody) {
			t.Fatalf("answer %d %q", resp.StatusCode, got)
		}
		if resp.Header.Get("Content-Type") != "application/json" || resp.Header.Get(loadsig.Header) != sig {
			t.Fatalf("headers %v", resp.Header)
		}
		wantEcho := ""
		if id%2 == 0 {
			wantEcho = reqtrace.FormatID(id)
		}
		if resp.Header.Get(reqtrace.Header) != wantEcho || resp.Header.Get("Retry-After") != "" {
			t.Fatalf("request %d: headers %v, want trace echo %q and no Retry-After", i, resp.Header, wantEcho)
		}
		resp.Body.Close()
		seen := e.lastReq.Load()
		if seen.TraceID != id || seen.Query != "shape=update&k=4" || !bytes.Equal(seen.Body, body) {
			t.Fatalf("backend saw %+v", seen)
		}
	}
	st := tr.Stats(b.host())
	if !st.Link || st.Dials != 1 || st.Idle != 1 {
		t.Fatalf("two sequential requests should share one pooled connection: %+v", st)
	}
}

// TestRoundTripAllocs pins the steady-state round trip's allocations on
// both ends: AllocsPerRun counts every goroutine's mallocs, so the
// backend's serve loop is inside the figure. The link's own code allocates
// nothing; a cancellable request — every one the proxy relays — pays
// context.AfterFunc's two objects for the cancel to be honoured.
func TestRoundTripAllocs(t *testing.T) {
	e := &echo{}
	sig := "status=ok;limit=8;active=1;queued=0;util=0.125"
	e.signal.Store(&sig)
	b := newLinkBackend(t, allocFree{e})
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	cancellable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
		want float64
	}{{"background", context.Background(), 0}, {"cancellable", cancellable, 2}} {
		req := txnRequest(c.ctx, b.ts.URL, "shape=update&k=4", nil, 0x1235)
		roundTrip := func() {
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		roundTrip() // dial
		if n := testing.AllocsPerRun(500, roundTrip); n != c.want {
			t.Fatalf("%s: link round trip allocates %v per op, want %v", c.name, n, c.want)
		}
	}
}

// allocFree is echo without its bookkeeping copies.
type allocFree struct{ e *echo }

func (h allocFree) ServeLink(req *Request, frame []byte) ([]byte, bool) {
	frame, _ = AppendResponse(frame, &Response{
		Status: http.StatusOK, Signal: *h.e.signal.Load(), ContentType: "application/json", Body: cannedBody,
	})
	return frame, true
}

func TestRefusedDialIsADialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	tr := NewTransport()
	_, err = tr.RoundTrip(txnRequest(context.Background(), "http://"+addr, "", nil, 1))
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("refused dial surfaced as %T %v, want *net.OpError{Op: dial}", err, err)
	}
}

// TestHandshakeFailureIsADialError: a peer that accepts the TCP connection
// and hangs up on the upgrade never saw a transaction.
func TestHandshakeFailureIsADialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	tr := NewTransport()
	_, err = tr.RoundTrip(txnRequest(context.Background(), "http://"+ln.Addr().String(), "", nil, 1))
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("broken handshake surfaced as %T %v, want *net.OpError{Op: dial}", err, err)
	}
}

func TestDeadIdleConnectionIsReplacedSilently(t *testing.T) {
	e := &echo{}
	b := newLinkBackend(t, e)
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	do := func() {
		t.Helper()
		resp, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "", nil, 1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	do()
	b.sever() // the backend drops its idle connections
	waitFor(t, "backend connections gone", func() bool { return b.open() == 0 })
	do()
	if st := tr.Stats(b.host()); st.Dials != 2 || e.calls.Load() != 2 {
		t.Fatalf("want a silent re-dial: %+v, %d calls", st, e.calls.Load())
	}
}

// severing answers nothing and cuts the connection once the request frame
// has been read — the backend may have run the transaction.
type severing struct{ b *linkBackend }

func (h *severing) ServeLink(_ *Request, frame []byte) ([]byte, bool) {
	h.b.sever()
	return frame, false
}

func TestBreakAfterWriteIsNotADialError(t *testing.T) {
	h := &severing{}
	b := newLinkBackend(t, h)
	h.b = b
	tr := NewTransport()
	_, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "", nil, 1))
	if err == nil {
		t.Fatal("a connection cut before the answer must fail the round trip")
	}
	var op *net.OpError
	if errors.As(err, &op) && op.Op == "dial" {
		t.Fatalf("post-write failure %v looks like a dial error: the proxy would replay the transaction", err)
	}
	if st := tr.Stats(b.host()); st.Idle != 0 {
		t.Fatalf("broken connection went back to the pool: %+v", st)
	}
}

func TestHTTPOnlyBackendFallsBackAndIsReprobed(t *testing.T) {
	var txns atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		txns.Add(1)
		_, _ = io.WriteString(w, "plain")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }()

	tr := NewTransport()
	defer tr.CloseIdleConnections()
	do := func() (string, error) {
		resp, err := tr.RoundTrip(txnRequest(context.Background(), "http://"+addr, "", nil, 1))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), nil
	}
	for i := 0; i < 3; i++ {
		if got, err := do(); err != nil || got != "plain" {
			t.Fatalf("fallback request %d: %q, %v", i, got, err)
		}
	}
	if st := tr.Stats(addr); st.Link || st.Dials != 0 || txns.Load() != 3 {
		t.Fatalf("HTTP-only backend: %+v, %d txns", st, txns.Load())
	}

	// The backend dies and a link-speaking one comes back on the address:
	// the failed exchange followed by a good one is the dead→alive
	// transition that clears the HTTP-only mark.
	hs.Close()
	if _, err := do(); err == nil {
		t.Fatal("request to a dead backend succeeded")
	}
	e := &echo{}
	mux2 := http.NewServeMux()
	mux2.HandleFunc(Path, func(w http.ResponseWriter, r *http.Request) {
		if c, err := Accept(w, r); err == nil {
			_ = c.Serve(e)
		}
	})
	mux2.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: mux2}
	go func() { _ = hs2.Serve(ln2) }()
	defer hs2.Close()
	probe, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
	resp, err := tr.RoundTrip(probe) // the health loop's probe
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, err := do(); err != nil || got != string(cannedBody) {
		t.Fatalf("after the revival: %q, %v", got, err)
	}
	if st := tr.Stats(addr); !st.Link || st.Dials != 1 {
		t.Fatalf("revived backend was not re-negotiated: %+v", st)
	}
}

// TestCancelWhileWaiting: the caller's cancel closes the connection, the
// backend's close-watcher sees it, and the connection never returns to the
// pool.
func TestCancelWhileWaiting(t *testing.T) {
	e := &echo{hold: make(chan struct{})}
	b := newLinkBackend(t, e)
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := tr.RoundTrip(txnRequest(ctx, b.ts.URL, "", nil, 1))
		errc <- err
	}()
	waitFor(t, "request parked at the backend", func() bool { return e.calls.Load() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round trip returned %v", err)
	}
	waitFor(t, "backend to notice the hang-up", func() bool { return e.hungUp.Load() == 1 })
	waitFor(t, "backend connection to end", func() bool { return b.open() == 0 })
	if st := tr.Stats(b.host()); st.Idle != 0 {
		t.Fatalf("aborted connection was pooled: %+v", st)
	}
}

// TestWatchCloseStopKeepsConnection: a watcher that is stopped (the wait
// ended normally) leaves the connection usable for the next frame.
func TestWatchCloseStopKeepsConnection(t *testing.T) {
	e := &echo{hold: make(chan struct{})}
	b := newLinkBackend(t, e)
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	first := make(chan error, 1)
	go func() {
		resp, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "", nil, 1))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	waitFor(t, "request parked behind its watcher", func() bool { return e.calls.Load() == 1 })
	close(e.hold)
	if err := <-first; err != nil {
		t.Fatalf("request released from its wait: %v", err)
	}
	resp, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "", nil, 1))
	if err != nil {
		t.Fatalf("next request on the connection: %v", err)
	}
	resp.Body.Close()
	if st := tr.Stats(b.host()); st.Dials != 1 || e.hungUp.Load() != 0 {
		t.Fatalf("stopped watcher cost the connection: %+v, %d hang-ups", st, e.hungUp.Load())
	}
}

func TestInterruptEndsIdleConnection(t *testing.T) {
	e := &echo{}
	b := newLinkBackend(t, e)
	tr := NewTransport()
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(txnRequest(context.Background(), b.ts.URL, "", nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	b.mu.Lock()
	for c := range b.conns {
		c.Interrupt()
	}
	b.mu.Unlock()
	waitFor(t, "interrupted connection to end", func() bool { return b.open() == 0 })
}

func TestServerClosesOnBadFrames(t *testing.T) {
	for name, frame := range map[string][]byte{
		"oversize":  {0xff, 0xff, 0xff, 0xff},
		"malformed": {0, 0, 0, 2, 1, 2},
		"pipelined": append(AppendRequest(nil, &Request{Query: "k=1"}), AppendRequest(nil, &Request{Query: "k=2"})...),
	} {
		t.Run(name, func(t *testing.T) {
			e := &echo{}
			b := newLinkBackend(t, e)
			nc, err := net.Dial("tcp", b.host())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if err := handshake(nc, b.host()); err != nil {
				t.Fatal(err)
			}
			if _, err := nc.Write(frame); err != nil {
				t.Fatal(err)
			}
			_ = nc.SetReadDeadline(time.Now().Add(3 * time.Second))
			if _, err := io.ReadAll(nc); err != nil {
				t.Fatalf("want the backend to close the connection, got %v", err)
			}
			if e.calls.Load() != 0 {
				t.Fatalf("handler ran %d times on a bad frame", e.calls.Load())
			}
		})
	}
}

func TestUnlinkableRequestsUseHTTP(t *testing.T) {
	var viaHTTP atomic.Uint64
	e := &echo{}
	mux := http.NewServeMux()
	mux.HandleFunc(Path, func(w http.ResponseWriter, r *http.Request) {
		if c, err := Accept(w, r); err == nil {
			_ = c.Serve(e)
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		viaHTTP.Add(1)
		_, _ = io.Copy(io.Discard, r.Body)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	tr := NewTransport()
	defer tr.CloseIdleConnections()

	big := txnRequest(context.Background(), ts.URL, "", make([]byte, MaxBody+1), 1)
	chunked := txnRequest(context.Background(), ts.URL, "", []byte("{}"), 1)
	chunked.ContentLength = -1
	health, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	for _, req := range []*http.Request{big, chunked, health} {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if viaHTTP.Load() != 3 || e.calls.Load() != 0 {
		t.Fatalf("%d over HTTP, %d over the link; want 3 and 0", viaHTTP.Load(), e.calls.Load())
	}
}

func TestAcceptRejectsPlainRequests(t *testing.T) {
	b := newLinkBackend(t, &echo{})
	resp, err := http.Get(b.ts.URL + Path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != Proto {
		t.Fatalf("plain GET /link: %d, Upgrade %q", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
}
