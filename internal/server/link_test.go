package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
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
	// headers is the whole header set (headerSet). Only the two HTTP
	// wires compare it: the link's answer has no Date or Content-Length.
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

// TestWireEquivalence sends the same requests over HTTP (net/http), over
// the link and through the front door on a real listener, and requires
// the same answer: status, Retry-After presence, load signal, content
// type, and body up to latency_ms. The door's answer must also carry the
// net/http answer's whole header set, Date's value aside. One transaction
// path serves all three wires, so a difference here is an adapter bug.
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
		overLink := answerOf(t)(tr.RoundTrip(newTxnRequest(ts, query, body)))
		overDoor := answerOf(t)(overDoor(t, s, door, query, body))
		if overHTTP.status != want {
			t.Fatalf("HTTP answered %d, want %d (%q)", overHTTP.status, want, overHTTP.body)
		}
		if overHTTP != overDoor {
			t.Fatalf("net/http and the front door disagree:\n http %+v\n door %+v", overHTTP, overDoor)
		}
		overHTTP.headers, overLink.headers = "", ""
		if overHTTP != overLink {
			t.Fatalf("wires disagree:\n http %+v\n link %+v", overHTTP, overLink)
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
		if !tr.Stats(strings.TrimPrefix(ts.URL, "http://")).Link || s.LinkConns() == 0 {
			t.Fatal("the link half of the comparison did not cross the link")
		}
	})

	// The shed answers need a full gate: one slot, held by a parked
	// transaction, so both wires see the same saturated signal.
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

// TestDrainLinks: a drain lets the link transaction in flight finish and
// answer, ends idle connections at once, and refuses new upgrades.
func TestDrainLinks(t *testing.T) {
	eng := newGateEngine()
	s, ts := newTestServer(t, 8, func(c *Config) { c.Engine = eng })
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()

	// Two connections: one left idle, one with a transaction parked.
	first := make(chan wireAnswer, 1)
	go func() { first <- answerOf(t)(tr.RoundTrip(newTxnRequest(ts.URL, "k=2", ""))) }()
	<-eng.entered
	second := make(chan wireAnswer, 1)
	go func() { second <- answerOf(t)(tr.RoundTrip(newTxnRequest(ts.URL, "k=2", ""))) }()
	<-eng.entered
	eng.release <- struct{}{} // one of them finishes; its connection idles
	var done wireAnswer
	select {
	case done = <-first:
		first = nil
	case done = <-second:
	}
	if done.status != http.StatusOK || s.LinkConns() != 2 {
		t.Fatalf("set-up: answer %d, %d link connections", done.status, s.LinkConns())
	}

	// Two drains at once (Serve's and an embedder's): both must see the end.
	drained := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { drained <- s.DrainConns(context.Background()) }()
	}
	deadline := time.Now().Add(3 * time.Second)
	for s.LinkConns() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection still open during the drain (%d open)", s.LinkConns())
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("DrainConns returned %v with a transaction in flight", err)
	default:
	}
	if resp, err := http.DefaultClient.Do(upgradeRequest(ts.URL)); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upgrade during a drain: %v, %v", resp, err)
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
		if err := <-drained; err != nil || s.LinkConns() != 0 {
			t.Fatalf("DrainConns: %v, %d connections left", err, s.LinkConns())
		}
	}
}

type panicEngine struct{}

func (panicEngine) Name() string                        { return "panic" }
func (panicEngine) Exec(context.Context, TxnSpec) error { panic("engine bug") }

// TestLinkPanicUnregisters: net/http recovers a panic on the connection's
// goroutine, so the connection must unregister on that path too — else a
// later drain waits out its deadline for a connection nobody serves.
func TestLinkPanicUnregisters(t *testing.T) {
	s, ts := newTestServer(t, 8, func(c *Config) { c.Engine = panicEngine{} })
	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	if _, err := tr.RoundTrip(newTxnRequest(ts.URL, "k=2", "")); err == nil {
		t.Fatal("a panicking transaction still answered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.DrainConns(ctx); err != nil || s.LinkConns() != 0 {
		t.Fatalf("drain after a handler panic: %v, %d connections left", err, s.LinkConns())
	}
}

func upgradeRequest(base string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, base+link.Path, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", link.Proto)
	return req
}

// TestDrainLinksDeadline: a transaction that outlives the drain is cut.
func TestDrainLinksDeadline(t *testing.T) {
	eng := newGateEngine()
	s, ts := newTestServer(t, 8, func(c *Config) { c.Engine = eng })
	tr := link.NewTransport()
	errc := make(chan error, 1)
	go func() {
		_, err := tr.RoundTrip(newTxnRequest(ts.URL, "", ""))
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
