package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// These tests pin the proxy's front door against its net/http adapter:
// the same answers, the same handoff to net/http of what the door does
// not serve, and the drain at shutdown.

// rawConn is a client connection that writes bytes as given and reads
// answers with http.ReadResponse.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, ts *httptest.Server) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *rawConn) send(raw string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, raw); err != nil {
		c.t.Fatal(err)
	}
}

// answer reads the next final answer (skipping 1xx) and its body.
func (c *rawConn) answer() (*http.Response, string) {
	c.t.Helper()
	for {
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			c.t.Fatalf("reading an answer: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			c.t.Fatalf("reading an answer's body: %v", err)
		}
		if resp.StatusCode >= 200 {
			return resp, string(body)
		}
	}
}

// eof reports whether the server closed the connection: a read ends in EOF
// (a reset counts too) rather than a timeout.
func (c *rawConn) eof(within time.Duration) bool {
	_ = c.nc.SetReadDeadline(time.Now().Add(within))
	_, err := c.br.ReadByte()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return false
	}
	return err != nil
}

func txnHead(query string, extra ...string) string {
	head := "POST /txn?" + query + " HTTP/1.1\r\nHost: proxy\r\n"
	for _, h := range extra {
		head += h + "\r\n"
	}
	return head + "\r\n"
}

// answerStub is a backend whose /txn answers what the query asks for —
// ?code=429 and the like, with Retry-After and the load signal — and whose
// /healthz serves the signal.
func answerStub(t *testing.T, sig loadsig.Signal) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		code := http.StatusOK
		if c := r.URL.Query().Get("code"); c != "" {
			code, _ = strconv.Atoi(c)
			w.Header().Set("Retry-After", "1")
		}
		w.Header().Set(loadsig.Header, sig.Encode())
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = io.WriteString(w, `{"status":"stub"}`+"\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(sig)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// breakerBackend reads each request head and closes the connection
// without an answer: a failure after the request went out.
func breakerBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				_, _ = http.ReadRequest(bufio.NewReader(nc))
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// answerSet renders an answer for comparison: status, body and every
// header with its values, except that Date and Retry-After (jittered)
// stand for their presence and Content-Length for whether it is the
// body's.
func answerSet(resp *http.Response, body string) string {
	lines := []string{resp.Status, body}
	for name, vs := range resp.Header {
		switch name {
		case "Date", "Retry-After":
			vs = []string{"present"}
		case "Content-Length":
			if len(vs) == 1 && vs[0] == strconv.Itoa(len(body)) {
				vs = []string{"the body's"}
			}
		}
		lines = append(lines, name+": "+strings.Join(vs, ", "))
	}
	sort.Strings(lines[2:])
	return strings.Join(lines, "\n")
}

// TestProxyWireEquivalence sends every kind of answer the proxy gives
// through its front door and through Handler() on net/http, each from a
// proxy of its own, and requires the same status, header set and body.
func TestProxyWireEquivalence(t *testing.T) {
	shedding := okSignal()
	shedding.Shedding = []string{"batch"}
	const traceID = "00000000000000e7"
	post := func(query, body string, header ...string) func(t *testing.T, ts *httptest.Server) (*http.Response, string) {
		return func(t *testing.T, ts *httptest.Server) (*http.Response, string) {
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/txn?"+query, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i+1 < len(header); i += 2 {
				req.Header.Set(header[i], header[i+1])
			}
			tr := &http.Transport{}
			t.Cleanup(tr.CloseIdleConnections)
			resp, err := tr.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return resp, string(got)
		}
	}
	twice := func(send func(*testing.T, *httptest.Server) (*http.Response, string)) func(*testing.T, *httptest.Server) (*http.Response, string) {
		return func(t *testing.T, ts *httptest.Server) (*http.Response, string) {
			send(t, ts)
			return send(t, ts)
		}
	}
	for _, tc := range []struct {
		name    string
		want    int
		body    string // what the answer's body holds
		cfg     func(t *testing.T) Config
		request func(t *testing.T, ts *httptest.Server) (*http.Response, string)
	}{
		{"relayed 200", http.StatusOK, `"status":"stub"`,
			func(t *testing.T) Config { return Config{Backends: []string{answerStub(t, okSignal()).URL}} },
			post("k=1", `{"k":2}`)},
		{"relayed 429", http.StatusTooManyRequests, `"status":"stub"`,
			func(t *testing.T) Config { return Config{Backends: []string{answerStub(t, okSignal()).URL}} },
			post("code=429", "")},
		{"relayed 503", http.StatusServiceUnavailable, `"status":"stub"`,
			func(t *testing.T) Config { return Config{Backends: []string{answerStub(t, okSignal()).URL}} },
			post("code=503", "")},
		// The first request finds the one backend refusing and marks it
		// dead; the second finds none.
		{"no backend 503", http.StatusServiceUnavailable, "no backend available",
			func(t *testing.T) Config { return Config{Backends: []string{deadAddr(t)}} },
			twice(post("k=1", ""))},
		{"overload 503", http.StatusServiceUnavailable, `cluster shedding class "batch"`,
			func(t *testing.T) Config { return Config{Backends: []string{answerStub(t, shedding).URL}} },
			post("class=batch", "")},
		{"413", http.StatusRequestEntityTooLarge, "request body too large",
			func(t *testing.T) Config {
				return Config{Backends: []string{answerStub(t, okSignal()).URL}, MaxBodyBytes: 16}
			},
			post("k=1", strings.Repeat(" ", 300<<10))},
		{"502 mid-request", http.StatusBadGateway, "backend failed mid-request",
			func(t *testing.T) Config { return Config{Backends: []string{breakerBackend(t)}} },
			post("k=1", "")},
		{"sampled trace echo", http.StatusOK, `"status":"stub"`,
			func(t *testing.T) Config {
				return Config{Backends: []string{answerStub(t, okSignal()).URL}, ReqTrace: reqtrace.Config{SampleEvery: 1}}
			},
			post("k=1", "", reqtrace.Header, traceID)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var answers [2]string
			for i, serve := range []func(*testing.T, *Proxy) *httptest.Server{
				serveProxy,
				func(t *testing.T, p *Proxy) *httptest.Server {
					ts := httptest.NewServer(p.Handler())
					t.Cleanup(ts.Close)
					return ts
				},
			} {
				cfg := tc.cfg(t)
				cfg.HealthInterval, cfg.SignalStale = time.Hour, time.Hour
				if cfg.ReqTrace.SampleEvery == 0 {
					cfg.ReqTrace.SampleEvery = -1 // no echo of a minted ID sampled at random
				}
				p := newTestProxy(t, cfg)
				resp, body := tc.request(t, serve(t, p))
				if resp.StatusCode != tc.want || !strings.Contains(body, tc.body) {
					t.Fatalf("answered %d %q, want %d %q", resp.StatusCode, body, tc.want, tc.body)
				}
				answers[i] = answerSet(resp, body)
				if i == 0 && p.DoorConns() == 0 && !resp.Close {
					t.Fatal("the door did not serve the request") // it holds a connection it served until the client closes it
				}
			}
			if answers[0] != answers[1] {
				t.Fatalf("the door and net/http disagree:\ndoor:\n%s\nnet/http:\n%s", answers[0], answers[1])
			}
			if tc.name == "sampled trace echo" && !strings.Contains(answers[0], reqtrace.Header+": "+traceID) {
				t.Fatalf("no trace echo in\n%s", answers[0])
			}
		})
	}
}

// TestProxyDoorHandoff drives the proxy's door over raw sockets with what
// it must serve and what it must hand to net/http untouched.
func TestProxyDoorHandoff(t *testing.T) {
	relayed := func(t *testing.T, c *rawConn) *http.Response {
		t.Helper()
		resp, body := c.answer()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(BackendHeader) != "0" || !strings.Contains(body, `"status":"stub"`) {
			t.Fatalf("answer %d %v %q, want a relayed 200", resp.StatusCode, resp.Header, body)
		}
		return resp
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *Proxy, c *rawConn)
	}{
		{"POST, GET /metrics, POST on one connection", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("k=2"))
			relayed(t, c)
			if p.DoorConns() != 1 {
				t.Fatal("the first POST was not the door's")
			}
			c.send("GET /metrics HTTP/1.1\r\nHost: proxy\r\n\r\n")
			resp, body := c.answer()
			if resp.StatusCode != http.StatusOK || !strings.Contains(body, "loadctlproxy_relayed_total 1") {
				t.Fatalf("GET /metrics after a door POST: %d %.80q", resp.StatusCode, body)
			}
			if p.DoorConns() != 0 {
				t.Fatal("the door kept a connection it handed to net/http")
			}
			c.send(txnHead("k=2"))
			relayed(t, c)
			if p.DoorConns() != 0 {
				t.Fatal("a handed-off connection came back to the door")
			}
		}},
		{"two pipelined POSTs in one write", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("k=2") + txnHead("k=3", "Content-Length: 7") + `{"k":3}`)
			relayed(t, c)
			relayed(t, c)
			if p.DoorConns() != 1 {
				t.Fatal("the door did not serve the pipelined POSTs")
			}
		}},
		{"HTTP/1.0", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send("POST /txn?k=2 HTTP/1.0\r\nHost: proxy\r\n\r\n")
			if resp := relayed(t, c); resp.ProtoMinor != 0 || p.DoorConns() != 0 {
				t.Fatalf("HTTP/1.0 was answered %s, %d door connections", resp.Proto, p.DoorConns())
			}
		}},
		{"chunked body", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("", "Transfer-Encoding: chunked") + "7\r\n{\"k\":3}\r\n0\r\n\r\n")
			relayed(t, c)
			if p.DoorConns() != 0 {
				t.Fatal("the door served a chunked body")
			}
		}},
		{"Expect: 100-continue", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("", "Expect: 100-continue", "Content-Length: 7"))
			resp, err := http.ReadResponse(c.br, nil)
			if err != nil || resp.StatusCode != http.StatusContinue {
				t.Fatalf("100-continue: %v, %v", resp, err)
			}
			c.send(`{"k":3}`)
			relayed(t, c)
			if p.DoorConns() != 0 {
				t.Fatal("the door served an Expect head")
			}
		}},
		{"5 KiB head", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("k=2", "X-Pad: "+strings.Repeat("x", 5<<10)))
			relayed(t, c)
			if p.DoorConns() != 0 {
				t.Fatal("the door served a head larger than its reader")
			}
		}},
		{"Connection: close", func(t *testing.T, p *Proxy, c *rawConn) {
			c.send(txnHead("k=2", "Connection: close"))
			if resp := relayed(t, c); !resp.Close || !c.eof(3*time.Second) {
				t.Fatalf("Connection: close answered with close=%v and the connection left open", resp.Close)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, ts := passiveProxy(t, Config{Backends: []string{answerStub(t, okSignal()).URL}})
			tc.run(t, p, dialRaw(t, ts))
		})
	}

	// A body cut short by a hang-up is not a whole one: nothing is
	// forwarded, and the proxy counts a disconnect, as net/http's adapter
	// does.
	t.Run("short body, then a hang-up", func(t *testing.T) {
		stub := newStub(t, okSignal())
		p, ts := passiveProxy(t, Config{Backends: []string{stub.ts.URL}})
		c := dialRaw(t, ts)
		c.send(txnHead("", "Content-Length: 100") + `{"k":3}`)
		c.nc.Close()
		waitFor(t, "the proxy to count the disconnect", func() bool { return p.SnapshotNow().Totals.Disconnects == 1 })
		if tot := p.SnapshotNow().Totals; stub.txns.Load() != 0 || tot.Requests != 1 || tot.Relayed != 0 {
			t.Fatalf("%d backend requests, proxy totals %+v; want nothing forwarded", stub.txns.Load(), tot)
		}
		assertDoors(t, p)
	})
}

// TestProxyDoorHTTPPath: a door relay over a transport other than
// link.Transport (roundTrip) passes a client's hang-up on to the backend,
// as the hop does, and blames the backend for a broken answer but not for
// a whole one too long to relay.
func TestProxyDoorHTTPPath(t *testing.T) {
	httpProxy := func(t *testing.T, backend string) (*Proxy, *httptest.Server) {
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		return passiveProxy(t, Config{Backends: []string{backend}, Transport: tr})
	}

	t.Run("hang-up while queued", func(t *testing.T) {
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
		unblock := sync.OnceFunc(func() { close(release) })
		t.Cleanup(unblock) // a failure must not leave the backend's server blocked at its Close
		p, ts := httpProxy(t, b.ts.URL)
		holder := dialRaw(t, ts)
		holder.send(txnHead("k=2"))
		waitFor(t, "the holder to be admitted", func() bool { return b.eng.execs.Load() == 1 })
		c := dialRaw(t, ts)
		c.send(txnHead("k=2"))
		waitFor(t, "the second request to queue", func() bool { return b.srv.SnapshotNow(false).Queued == 1 })
		c.nc.Close()
		waitFor(t, "the queue slot to be freed and the disconnect counted", func() bool {
			snap := b.srv.SnapshotNow(false)
			return snap.Queued == 0 && snap.Totals.Disconnects == 1
		})
		waitFor(t, "the proxy to count the disconnect", func() bool { return p.SnapshotNow().Totals.Disconnects == 1 })
		unblock()
		if resp, body := holder.answer(); resp.StatusCode != http.StatusOK {
			t.Fatalf("holder answered %d %q", resp.StatusCode, body)
		}
		if snap := p.SnapshotNow(); snap.Backends[0].State != StateUp || snap.Totals.Failed != 0 || snap.LinkDials != 0 {
			t.Fatalf("backend %s, %d failed, %d hop dials; want up, 0, 0", snap.Backends[0].State, snap.Totals.Failed, snap.LinkDials)
		}
		assertDoors(t, p)
	})

	for _, tc := range []struct {
		name  string
		write func(w http.ResponseWriter)
		state string
	}{
		{"answer over link.MaxAnswer", func(w http.ResponseWriter) {
			_, _ = io.WriteString(w, strings.Repeat("x", link.MaxAnswer+1))
		}, StateUp},
		{"answer cut short", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "100")
			_, _ = io.WriteString(w, `{"status":`)
			panic(http.ErrAbortHandler) // net/http closes the connection
		}, StateDead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/txn" {
					tc.write(w)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(okSignal())
			}))
			t.Cleanup(bts.Close)
			p, ts := httpProxy(t, bts.URL)
			c := dialRaw(t, ts)
			c.send(txnHead("k=2"))
			if resp, body := c.answer(); resp.StatusCode != http.StatusBadGateway {
				t.Fatalf("answer %d %.80q, want 502", resp.StatusCode, body)
			}
			if snap := p.SnapshotNow(); snap.Backends[0].State != tc.state || snap.Totals.Failed != 1 {
				t.Fatalf("backend %s, %d failed; want %s, 1", snap.Backends[0].State, snap.Totals.Failed, tc.state)
			}
			assertDoors(t, p)
		})
	}
}

// TestProxyDrain: at shutdown an idle door connection ends at once, and
// one whose relay is in flight gets its answer, with Connection: close,
// before it ends.
func TestProxyDrain(t *testing.T) {
	b := startLinkBackend(t, nil)
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})
	idle := dialRaw(t, ts)
	idle.send(txnHead("k=2"))
	if resp, body := idle.answer(); resp.StatusCode != http.StatusOK {
		t.Fatalf("set-up: %d %q", resp.StatusCode, body)
	}
	release := make(chan struct{})
	b.eng.hook(func(context.Context) error {
		<-release
		return nil
	})
	busy := dialRaw(t, ts)
	busy.send(txnHead("k=2"))
	waitFor(t, "the relay to reach the backend", func() bool { return b.eng.execs.Load() == 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() {
		if err := ts.Config.Shutdown(ctx); err != nil {
			drained <- err
			return
		}
		drained <- p.DrainConns(ctx)
	}()
	if !idle.eof(3 * time.Second) {
		t.Fatal("the idle door connection outlived the start of the shutdown")
	}
	select {
	case err := <-drained:
		t.Fatalf("the drain ended (%v) with a relay in flight", err)
	default:
	}
	close(release)
	resp, body := busy.answer()
	if resp.StatusCode != http.StatusOK || !resp.Close || !strings.Contains(body, `"status":"committed"`) {
		t.Fatalf("relay in flight across the drain: %d close=%v %q", resp.StatusCode, resp.Close, body)
	}
	if err := <-drained; err != nil || p.DoorConns() != 0 {
		t.Fatalf("drain: %v, %d door connections left", err, p.DoorConns())
	}
	if !busy.eof(3 * time.Second) {
		t.Fatal("the drained connection stayed open after its answer")
	}
}

// TestProxyPipelinedBehindSlowRelay: a relay slower than the hang-up
// grace arms the door's close-watcher, and the next pipelined request
// arriving meanwhile is kept, not taken for a hang-up: both are answered
// and nobody counts a disconnect.
func TestProxyPipelinedBehindSlowRelay(t *testing.T) {
	b := startLinkBackend(t, nil)
	release := make(chan struct{})
	b.eng.hook(func(context.Context) error {
		<-release
		return nil
	})
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})
	c := dialRaw(t, ts)
	c.send(txnHead("k=2"))
	waitFor(t, "the relay to reach the backend", func() bool { return b.eng.execs.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // past the grace: the watcher is armed
	c.send(txnHead("k=3"))
	time.Sleep(20 * time.Millisecond) // let the watcher read it
	close(release)
	for i := 0; i < 2; i++ {
		if resp, body := c.answer(); resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("answer %d: %d close=%v %q", i, resp.StatusCode, resp.Close, body)
		}
	}
	if tot := p.SnapshotNow().Totals; tot.Disconnects != 0 || tot.Relayed != 2 || b.totals().Disconnects != 0 {
		t.Fatalf("proxy totals %+v, backend disconnects %d", tot, b.totals().Disconnects)
	}
	assertDoors(t, p)
}

// cannedAnswer is a door-format /txn answer with a load signal.
var cannedAnswer = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
	"X-Loadctl-Load: status=ok;limit=64;active=1;queued=0;util=0.0156\r\n" +
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
			buf, answer := make([]byte, 4<<10), []byte(cannedAnswer)
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

// doorRoundTrip writes req and reads one answer without allocating: the
// status line, the headers up to the blank line and a Content-Length
// body.
func doorRoundTrip(tb testing.TB, nc net.Conn, br *bufio.Reader, req []byte) {
	if _, err := nc.Write(req); err != nil {
		tb.Fatal(err)
	}
	line, err := br.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		tb.Fatalf("status line %q, %v", line, err)
	}
	n := -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			tb.Fatal(err)
		}
		if len(line) == 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n = 0
			for _, d := range bytes.TrimRight(v, "\r\n") {
				n = n*10 + int(d-'0')
			}
		}
	}
	if _, err := br.Discard(n); n < 0 || err != nil {
		tb.Fatalf("body of %d bytes: %v", n, err)
	}
}

// BenchmarkRelayFrontDoor is the proxy's whole routed path on real
// loopback sockets: a keep-alive client connection into the front door,
// the relay, the hop to a canned backend that allocates nothing, and the
// answer back. Unsampled, like BenchmarkRelay, and held by CI to 0
// allocs/op: what allocates is the door, the relay and the hop.
func BenchmarkRelayFrontDoor(b *testing.B) {
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer bln.Close()
	go serveCanned(bln)
	p, err := New(Config{
		Backends:       []string{bln.Addr().String()},
		HealthInterval: time.Hour,
		ReqTrace:       reqtrace.Config{SampleEvery: -1, SlowN: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: p.Handler()}
	go hs.Serve(p.FrontDoor(ln))
	defer hs.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	req := []byte("POST /txn?class=query&k=4 HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
	doorRoundTrip(b, nc, br, req) // the connections' first request sets up their buffers
	b.ReportAllocs()
	for b.Loop() {
		doorRoundTrip(b, nc, br, req)
	}
}
