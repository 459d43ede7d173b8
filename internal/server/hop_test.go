package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// gateEngine parks every Exec until released, so a test can hold an
// admission slot for as long as it needs the gate full.
type gateEngine struct {
	entered chan struct{}
	release chan struct{}
}

func newGateEngine() *gateEngine {
	return &gateEngine{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (e *gateEngine) Name() string { return "gate" }

func (e *gateEngine) Exec(ctx context.Context, _ TxnSpec) error {
	e.entered <- struct{}{}
	select {
	case <-e.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wireAnswer is what the differential test compares: everything a /txn
// answer carries to the proxy, on any wire.
type wireAnswer struct {
	status      int
	retryAfter  bool
	signal      string
	contentType string
	body        string
	// headers is the whole header set (headerSet). Only net/http's and
	// the door's answers as net/http's client reads them compare it: the
	// proxy's hop exposes just the headers the proxy reads.
	headers string
}

var latencyField = regexp.MustCompile(`"latency_ms":[0-9.eE+-]+`)

// answerOf reads one round trip's result; a transport error is reported
// with t.Error (it runs off the test goroutine too) and reads as status 0.
func answerOf(t *testing.T) func(*http.Response, error) wireAnswer {
	return func(resp *http.Response, err error) wireAnswer {
		t.Helper()
		if err != nil {
			t.Error(err)
			return wireAnswer{}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return wireAnswer{
			status:      resp.StatusCode,
			retryAfter:  resp.Header.Get("Retry-After") != "",
			signal:      resp.Header.Get(loadsig.Header),
			contentType: resp.Header.Get("Content-Type"),
			body:        latencyField.ReplaceAllString(string(body), `"latency_ms":0`),
			headers:     headerSet(resp.Header, string(body)),
		}
	}
}

// hopAnswer sends one routed POST /txn over the proxy's hop
// (link.Transport.Do) to the backend at base and reads it as answerOf
// does; a transport error is reported with t.Error and reads as status 0.
func hopAnswer(t *testing.T, tr *link.Transport, base, query, body string) wireAnswer {
	t.Helper()
	rep, err := tr.Do(context.Background(), strings.TrimPrefix(base, "http://"), query, []byte(body), 0, nil, nil)
	if err != nil {
		t.Error(err)
		return wireAnswer{}
	}
	return wireAnswer{
		status:      rep.Status,
		retryAfter:  rep.RetryAfter != "",
		signal:      rep.Signal,
		contentType: rep.ContentType,
		body:        latencyField.ReplaceAllString(string(rep.Body), `"latency_ms":0`),
	}
}

func newTxnRequest(base, query, body string) *http.Request {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/txn?"+query, rd)
	if err != nil {
		panic(err)
	}
	return req
}

// TestWireEquivalence sends the same requests to both adapters of runTxn
// — net/http (handleTxn) and the front door on a real listener — each
// from net/http's client and from the proxy's hop (link.Transport), and
// requires the same answer: status, Retry-After presence, load signal,
// content type, and body up to latency_ms. The door's answer must also
// carry the net/http answer's whole header set, Date's value aside. One
// transaction path serves both adapters, so a difference here is an
// adapter bug, or a disagreement between the hop and what it reads.
func TestWireEquivalence(t *testing.T) {
	cases := []struct {
		name, query, body string
		want              int
	}{
		{"committed", "class=interactive&shape=update&k=4", "", 200},
		{"committed by JSON body", "", `{"class":"batch","shape":"query","k":3}`, 200},
		{"query wins over body", "k=2", `{"k":9,"shape":"update"}`, 200},
		{"escaped query", "class=inter%61ctive&shape=upd%61te&k=%34", "", 200},
		{"legacy shape alias", "class=update&k=2", "", 200},
		{"bad k", "k=0", "", 400},
		{"bad k escaped", "k=%2d1", "", 400},
		{"unknown class", "class=nope", "", 400},
		{"bad shape", "shape=sideways", "", 400},
		{"bad JSON", "", `{"k":`, 400},
		{"negative k in JSON", "", `{"k":-1}`, 400},
		{"bad base", "base=x", "", 400},
	}
	check := func(t *testing.T, s *Server, ts, door string, tr *link.Transport, query, body string, want int) {
		t.Helper()
		overHTTP := answerOf(t)(http.DefaultClient.Do(newTxnRequest(ts, query, body)))
		overDoor := answerOf(t)(overDoor(t, s, door, query, body))
		if overHTTP.status != want {
			t.Fatalf("HTTP answered %d, want %d (%q)", overHTTP.status, want, overHTTP.body)
		}
		if overHTTP != overDoor {
			t.Fatalf("net/http and the front door disagree:\n http %+v\n door %+v", overHTTP, overDoor)
		}
		overHTTP.headers = ""
		for name, base := range map[string]string{"net/http": ts, "the door": "http://" + door} {
			hop := hopAnswer(t, tr, base, query, body)
			if overHTTP != hop {
				t.Fatalf("the hop to %s disagrees:\n http %+v\n hop  %+v", name, overHTTP, hop)
			}
		}
	}
	// crossed fails the test unless the hop went raw to both adapters, on
	// one pooled connection each.
	crossed := func(t *testing.T, s *Server, ts, door string, tr *link.Transport) {
		t.Helper()
		if toHTTP, toDoor := tr.Stats(strings.TrimPrefix(ts, "http://")), tr.Stats(door); toHTTP.Dials != 1 || toDoor.Dials != 1 || s.DoorConns() == 0 {
			t.Fatalf("the hop did not cross to both adapters: %+v to net/http, %+v to the door, %d door connections", toHTTP, toDoor, s.DoorConns())
		}
	}

	t.Run("queueing", func(t *testing.T) {
		s, ts := newTestServer(t, 8, func(c *Config) { c.Classes = DefaultClasses() })
		door := serveFrontDoor(t, s)
		tr := link.NewTransport()
		defer tr.CloseIdleConnections()
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) { check(t, s, ts.URL, door, tr, c.query, c.body, c.want) })
		}
		crossed(t, s, ts.URL, door, tr)
	})

	// The shed answers need a full gate: one slot, held by a parked
	// transaction, so every wire sees the same saturated signal.
	for name, mode := range map[string]struct {
		mutate func(*Config)
		want   int
	}{
		"reject 429":        {func(c *Config) { c.Reject = true }, 429},
		"queue timeout 503": {func(c *Config) { c.QueueTimeout = 20 * time.Millisecond }, 503},
	} {
		t.Run(name, func(t *testing.T) {
			eng := newGateEngine()
			s, ts := newTestServer(t, 1, func(c *Config) {
				c.Engine = eng
				mode.mutate(c)
			})
			door := serveFrontDoor(t, s)
			tr := link.NewTransport()
			defer tr.CloseIdleConnections()
			held := make(chan struct{})
			go func() {
				defer close(held)
				resp, err := http.Post(ts.URL+"/txn", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}()
			<-eng.entered
			time.Sleep(2 * signalTTL) // the cached signal now shows the held slot to every wire
			check(t, s, ts.URL, door, tr, "shape=update&k=2", "", mode.want)
			crossed(t, s, ts.URL, door, tr)
			close(eng.release)
			<-held
		})
	}
}

// TestUncontrolledServerSerialises: -controller none installs a +Inf
// limit, which JSON cannot carry. /healthz and /metrics?format=json — what
// a proxy and a scraper need to route to and watch such a backend — must
// still answer a document, and the /healthz signal must decode back to
// +Inf. The remaining JSON endpoints may refuse the value, but as a 500
// that says so, never as a 200 with no body.
func TestUncontrolledServerSerialises(t *testing.T) {
	_, ts := newTestServer(t, 1, func(c *Config) {
		c.Controller = core.NoControl()
		c.Classes = DefaultClasses()
		c.ReqTrace = reqtrace.Config{SampleEvery: 1}
	})
	if code, _ := postTxn(t, ts.URL, "?k=2"); code != http.StatusOK {
		t.Fatalf("txn under no control: %d", code)
	}
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	for _, path := range []string{"/healthz", "/metrics?format=json", "/metrics?format=json&history=1"} {
		code, body := get(path)
		var doc map[string]any
		if code != http.StatusOK || json.Unmarshal(body, &doc) != nil || doc["limit"] != math.MaxFloat64 {
			t.Fatalf("GET %s under no control: status %d, body %.80q", path, code, body)
		}
	}
	_, body := get("/healthz")
	var sig loadsig.Signal
	if err := json.Unmarshal(body, &sig); err != nil || !math.IsInf(sig.Limit, 1) || sig.Status != loadsig.StatusOK {
		t.Fatalf("/healthz signal decodes to %+v (%v), want an ok signal with limit +Inf", sig, err)
	}
	for _, path := range []string{"/controller?trace=1", "/debug/requests", "/debug/incidents"} {
		if code, body := get(path); len(body) == 0 || (code != http.StatusOK && code != http.StatusInternalServerError) {
			t.Fatalf("GET %s under no control: status %d with a %d-byte body", path, code, len(body))
		}
	}
}

// TestDrainLinks: a drain lets the hop's transaction in flight finish and
// answer, ends idle connections at once, and closes a connection accepted
// meanwhile before its first request.
func TestDrainLinks(t *testing.T) {
	eng := newGateEngine()
	s, _ := newTestServer(t, 8, func(c *Config) { c.Engine = eng })
	door := serveFrontDoor(t, s)
	base := "http://" + door
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()

	// Two connections: one left idle, one with a transaction parked.
	first := make(chan wireAnswer, 1)
	go func() { first <- hopAnswer(t, tr, base, "k=2", "") }()
	<-eng.entered
	second := make(chan wireAnswer, 1)
	go func() { second <- hopAnswer(t, tr, base, "k=2", "") }()
	<-eng.entered
	eng.release <- struct{}{} // one of them finishes; its connection idles
	var done wireAnswer
	select {
	case done = <-first:
		first = nil
	case done = <-second:
	}
	if done.status != http.StatusOK || s.DoorConns() != 2 {
		t.Fatalf("set-up: answer %d, %d door connections", done.status, s.DoorConns())
	}

	// Two drains at once (Serve's and an embedder's): both must see the end.
	drained := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { drained <- s.DrainConns(context.Background()) }()
	}
	waitUntil(t, "the idle connection closed by the drain", func() bool { return s.DoorConns() == 1 })
	select {
	case err := <-drained:
		t.Fatalf("DrainConns returned %v with a transaction in flight", err)
	default:
	}
	late := dialDoor(t, door)
	late.send(txnHead(door, "k=2"))
	if !late.eof(3 * time.Second) {
		t.Fatal("a connection accepted during the drain was served")
	}

	close(eng.release)
	pending := first
	if pending == nil {
		pending = second
	}
	if got := <-pending; got.status != http.StatusOK {
		t.Fatalf("transaction in flight across the drain answered %d", got.status)
	}
	for i := 0; i < 2; i++ {
		if err := <-drained; err != nil || s.DoorConns() != 0 {
			t.Fatalf("DrainConns: %v, %d connections left", err, s.DoorConns())
		}
	}
}

type panicEngine struct{}

func (panicEngine) Name() string                        { return "panic" }
func (panicEngine) Exec(context.Context, TxnSpec) error { panic("engine bug") }

// TestLinkPanicUnregisters: the door recovers a panic on the connection's
// goroutine and closes the hop's connection, which fails the round trip
// and must leave the registry too — else a later drain waits out its
// deadline for a connection nobody serves.
func TestLinkPanicUnregisters(t *testing.T) {
	s, _ := newTestServer(t, 8, func(c *Config) { c.Engine = panicEngine{} })
	door := serveFrontDoor(t, s)
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	if _, err := tr.Do(context.Background(), door, "k=2", nil, 0, nil, nil); err == nil {
		t.Fatal("a panicking transaction still answered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.DrainConns(ctx); err != nil || s.DoorConns() != 0 {
		t.Fatalf("drain after a handler panic: %v, %d connections left", err, s.DoorConns())
	}
}

// TestDrainLinksDeadline: a transaction that outlives the drain is cut.
func TestDrainLinksDeadline(t *testing.T) {
	eng := newGateEngine()
	s, _ := newTestServer(t, 8, func(c *Config) { c.Engine = eng })
	door := serveFrontDoor(t, s)
	tr := link.NewTransport()
	errc := make(chan error, 1)
	go func() {
		_, err := tr.Do(context.Background(), door, "", nil, 0, nil, nil)
		errc <- err
	}()
	<-eng.entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.DrainConns(ctx); err != context.DeadlineExceeded {
		t.Fatalf("DrainConns past its deadline returned %v", err)
	}
	if err := <-errc; err == nil {
		t.Fatal("severed connection still answered")
	}
	close(eng.release)
}

// recordingListener accepts connections that keep every byte read from
// them, so a test sees exactly what a client sent the door.
type recordingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*recordingConn
}

func (l *recordingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &recordingConn{Conn: nc}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *recordingListener) last() *recordingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

type recordingConn struct {
	net.Conn
	mu   sync.Mutex
	read []byte
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read = append(c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// TestHopHeadsAreTheDoors: every head the proxy's hop writes — a query of
// 0 bytes, 1 byte or the longest it sends raw; traced or not; a body of 0,
// 1 or link.MaxBody bytes — is within link.HeadBudget, reads back as sent,
// and is one the door serves: it keeps the connection instead of handing
// it to net/http. One byte more of query and the request does not Fit:
// the proxy sends it through RoundTrip instead.
func TestHopHeadsAreTheDoors(t *testing.T) {
	s, _ := newTestServer(t, 8, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rl := &recordingListener{Listener: ln}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(s.FrontDoor(rl)) }()
	defer hs.Close()
	addr := ln.Addr().String()

	// The longest head the hop writes has the longest Content-Length and a
	// trace ID; the query gets what is left of the budget.
	longest := "POST /txn? HTTP/1.1\r\nHost: " + addr + "\r\nContent-Length: 1048576\r\n" +
		reqtrace.Header + ": 0123456789abcdef\r\n\r\n"
	atBudget := "k=2&pad=" + strings.Repeat("x", link.HeadBudget-len(longest)-len("k=2&pad="))
	hop := func(query string, traceID uint64, body []byte) *link.Transport {
		t.Helper()
		if !link.Fits(addr, query, int64(len(body))) {
			t.Fatalf("query of %d, body of %d: does not Fit", len(query), len(body))
		}
		tr := link.NewTransport()
		if _, err := tr.Do(context.Background(), addr, query, body, traceID, nil, nil); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, query := range []string{"", "k", atBudget} {
		for _, traceID := range []uint64{0, 0xfeedface} {
			for _, n := range []int{0, 1, link.MaxBody} {
				tr := hop(query, traceID, bytes.Repeat([]byte(" "), n))
				rc := rl.last()
				rc.mu.Lock()
				sent := rc.read
				rc.mu.Unlock()
				head := bytes.Index(sent, []byte("\r\n\r\n")) + 4
				r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(sent)))
				if err != nil {
					t.Fatalf("query of %d, trace %x, body of %d: %v", len(query), traceID, n, err)
				}
				id, _ := reqtrace.FromRequest(r)
				if head > link.HeadBudget || head+n != len(sent) || r.URL.RawQuery != query || id != traceID || r.ContentLength != int64(n) {
					t.Fatalf("query of %d, trace %x, body of %d: a %d-byte head of %d bytes reads ?%.20q, trace %x, length %d",
						len(query), traceID, n, head, len(sent), r.URL.RawQuery, id, r.ContentLength)
				}
				if st := tr.Stats(addr); st.Dials != 1 || st.Idle != 1 || !heldByDoor(s) {
					t.Fatalf("query of %d, trace %x, body of %d: %+v, held by the door %v", len(query), traceID, n, st, heldByDoor(s))
				}
				tr.CloseIdleConnections()
				waitUntil(t, "the door to let the connection go", func() bool { return s.DoorConns() == 0 })
			}
		}
	}
	if link.Fits(addr, atBudget+"x", 0) {
		t.Fatal("a query over the budget Fits")
	}
}
