package server

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// serveFrontDoor serves s as loadctl.Serve does — the front door on a real
// loopback listener, net/http behind it — and returns the address.
func serveFrontDoor(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(s.FrontDoor(ln))
	}()
	t.Cleanup(func() { // the door's own connections close with s
		hs.Close()
		<-served
	})
	return ln.Addr().String()
}

// heldByDoor reports whether the door holds the one client connection a
// test has open to it: true after the door served a request on it, false
// once the connection went to net/http or ended.
func heldByDoor(s *Server) bool { return s.DoorConns() == 1 }

// rawConn is a client connection to the front door that writes bytes as
// given and reads answers with http.ReadResponse.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialDoor(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
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

// wireRequest renders a /txn request as a client library would.
func wireRequest(t *testing.T, addr, query, body string) string {
	t.Helper()
	var b bytes.Buffer
	if err := newTxnRequest("http://"+addr, query, body).Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func txnHead(addr, query string, extra ...string) string {
	head := "POST /txn?" + query + " HTTP/1.1\r\nHost: " + addr + "\r\n"
	for _, h := range extra {
		head += h + "\r\n"
	}
	return head + "\r\n"
}

// overDoor sends one /txn on a fresh connection to the front door and
// reads the answer, failing the test unless the door served it: it holds
// one more connection than before, until the client closes it.
func overDoor(t *testing.T, s *Server, addr, query, body string) (*http.Response, error) {
	t.Helper()
	before := s.DoorConns()
	c := dialDoor(t, addr)
	c.send(wireRequest(t, addr, query, body))
	resp, got := c.answer()
	if s.DoorConns() != before+1 {
		t.Fatalf("net/http served %q, not the front door", query)
	}
	c.nc.Close()
	waitUntil(t, "the door to let the connection go", func() bool { return s.DoorConns() == before })
	resp.Body = io.NopCloser(strings.NewReader(got))
	return resp, nil
}

// headerSet renders an answer's header set for comparison: every name
// with its values, except that Date and Retry-After (jittered) stand for
// their presence, Content-Length (latency_ms varies in length) for
// whether it is the body's, and X-Loadctl-Trace, echoed when the request
// was head-sampled at random, is left out.
func headerSet(h http.Header, body string) string {
	var lines []string
	for name, vs := range h {
		switch name {
		case reqtrace.Header:
			continue
		case "Date", "Retry-After":
			vs = []string{"present"}
		case "Content-Length":
			if len(vs) == 1 && vs[0] == strconv.Itoa(len(body)) {
				vs = []string{"the body's"}
			}
		}
		lines = append(lines, name+": "+strings.Join(vs, ", "))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestFrontDoorHandoff drives the front door over raw sockets with what
// it must serve and what it must hand to net/http untouched.
func TestFrontDoorHandoff(t *testing.T) {
	commit := func(t *testing.T, resp *http.Response, body string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"status":"committed"`) {
			t.Fatalf("answer %d %q, want a commit", resp.StatusCode, body)
		}
	}
	committed := func(t *testing.T, c *rawConn) {
		t.Helper()
		resp, body := c.answer()
		commit(t, resp, body)
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Server, addr string)
	}{
		{"POST, GET /metrics, POST on one connection", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "k=2"))
			committed(t, c)
			if !heldByDoor(s) {
				t.Fatal("the first POST was not the door's")
			}
			c.send("GET /metrics HTTP/1.1\r\nHost: " + addr + "\r\n\r\n")
			resp, body := c.answer()
			if resp.StatusCode != http.StatusOK || !strings.Contains(body, "loadctl_commits_total 1") {
				t.Fatalf("GET /metrics after a door POST: %d %.80q", resp.StatusCode, body)
			}
			if heldByDoor(s) {
				t.Fatal("the door kept a connection it handed to net/http")
			}
			c.send(txnHead(addr, "k=2"))
			committed(t, c)
			if heldByDoor(s) {
				t.Fatal("a handed-off connection came back to the door")
			}
		}},
		{"two pipelined POSTs in one write", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "shape=update&k=2") + wireRequest(t, addr, "shape=query", `{"k":3}`))
			resp, body := c.answer()
			commit(t, resp, body)
			resp, body = c.answer()
			commit(t, resp, body)
			if !strings.Contains(body, `"class":"query"`) {
				t.Fatalf("second pipelined answer %q is not the second request's", body)
			}
			if !heldByDoor(s) {
				t.Fatal("the door did not serve the pipelined POSTs")
			}
		}},
		{"HTTP/1.0", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send("POST /txn?k=2 HTTP/1.0\r\nHost: " + addr + "\r\n\r\n")
			resp, body := c.answer()
			commit(t, resp, body)
			if resp.ProtoMinor != 0 || heldByDoor(s) {
				t.Fatalf("HTTP/1.0 was answered %s by the door (%v)", resp.Proto, heldByDoor(s))
			}
		}},
		{"chunked body", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "", "Transfer-Encoding: chunked") + "6\r\n{\"k\":3\r\n13\r\n,\"shape\":\"query\"}\r\n0\r\n\r\n")
			resp, body := c.answer()
			commit(t, resp, body)
			if !strings.Contains(body, `"class":"query"`) || heldByDoor(s) {
				t.Fatalf("chunked body: %q, held by the door %v", body, heldByDoor(s))
			}
		}},
		{"Expect: 100-continue", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "", "Expect: 100-continue", "Content-Length: 7"))
			resp, err := http.ReadResponse(c.br, nil)
			if err != nil || resp.StatusCode != http.StatusContinue {
				t.Fatalf("100-continue: %v, %v", resp, err)
			}
			c.send(`{"k":3}`)
			committed(t, c)
			if heldByDoor(s) {
				t.Fatal("the door served an Expect head")
			}
		}},
		{"5 KiB head", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "k=2", "X-Pad: "+strings.Repeat("x", 5<<10)))
			committed(t, c)
			if heldByDoor(s) {
				t.Fatal("the door served a head larger than its reader")
			}
		}},
		{"Connection: close", func(t *testing.T, s *Server, addr string) {
			c := dialDoor(t, addr)
			c.send(txnHead(addr, "k=2", "Connection: close"))
			resp, body := c.answer()
			commit(t, resp, body)
			if !resp.Close || !c.eof(3*time.Second) {
				t.Fatalf("Connection: close answered with close=%v and the connection left open", resp.Close)
			}
		}},
		{"proxy hop round trips stay at the door", func(t *testing.T, s *Server, addr string) {
			tr := link.NewTransport()
			defer tr.CloseIdleConnections()
			for i := 0; i < 3; i++ {
				rep, err := tr.Do(context.Background(), addr, "k=2", nil, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Status != http.StatusOK || !strings.Contains(string(rep.Body), `"status":"committed"`) {
					t.Fatalf("answer %d %q, want a commit", rep.Status, rep.Body)
				}
			}
			if st := tr.Stats(addr); st.Dials != 1 || s.DoorConns() != 1 {
				t.Fatalf("three hop round trips: %+v, %d door connections; want one connection, the door's", st, s.DoorConns())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t, 8, nil)
			tc.run(t, s, serveFrontDoor(t, s))
		})
	}

	t.Run("hang-up while queued", func(t *testing.T) {
		eng := newGateEngine()
		s, _ := newTestServer(t, 1, func(c *Config) { c.Engine = eng })
		addr := serveFrontDoor(t, s)
		holder := dialDoor(t, addr)
		holder.send(txnHead(addr, "k=2"))
		<-eng.entered // the one slot is taken
		c := dialDoor(t, addr)
		c.send(txnHead(addr, "k=2"))
		waitUntil(t, "the second request queued", func() bool { return s.SnapshotNow(false).Queued == 1 })
		c.nc.Close()
		waitUntil(t, "the hang-up counted", func() bool { return s.SnapshotNow(false).Totals.Disconnects == 1 })
		close(eng.release)
		resp, _ := holder.answer()
		snap := s.SnapshotNow(false)
		if resp.StatusCode != http.StatusOK || snap.Totals.Disconnects != 1 || snap.Totals.Commits != 1 || snap.Queued != 0 {
			t.Fatalf("after the hang-up: holder %d, totals %+v, %d queued", resp.StatusCode, snap.Totals, snap.Queued)
		}
	})

	// The close-watcher of a queued request stays armed until its answer
	// is built; the next request arriving meanwhile is kept, not taken for
	// a hang-up.
	t.Run("pipelined while queued and executing", func(t *testing.T) {
		eng := newGateEngine()
		s, _ := newTestServer(t, 1, func(c *Config) { c.Engine = eng })
		addr := serveFrontDoor(t, s)
		holder := dialDoor(t, addr)
		holder.send(txnHead(addr, "k=2"))
		<-eng.entered
		c := dialDoor(t, addr)
		c.send(txnHead(addr, "k=2"))
		waitUntil(t, "the request queued", func() bool { return s.SnapshotNow(false).Queued == 1 })
		eng.release <- struct{}{} // the holder commits; c's request runs
		<-eng.entered
		c.send(txnHead(addr, "k=3"))
		time.Sleep(20 * time.Millisecond) // let the watcher read it
		close(eng.release)
		committed(t, holder)
		committed(t, c)
		committed(t, c)
		if snap := s.SnapshotNow(false); snap.Totals.Disconnects != 0 || snap.Totals.Commits != 3 {
			t.Fatalf("pipelined behind a queued request: totals %+v", snap.Totals)
		}
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// doorRoundTrip writes req and reads one answer without allocating
// (BenchmarkTxnFrontDoor): the status line, the headers up to the blank
// line and a Content-Length body.
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

// TestFrontDoorPanicUnregisters: like net/http, the door recovers a
// panicking request and closes its connection, which must also leave the
// registry — else a later drain waits out its deadline for it.
func TestFrontDoorPanicUnregisters(t *testing.T) {
	s, _ := newTestServer(t, 8, func(c *Config) { c.Engine = panicEngine{} })
	c := dialDoor(t, serveFrontDoor(t, s))
	c.send(txnHead("a", "k=2"))
	if !c.eof(3 * time.Second) {
		t.Fatal("the connection of a panicking request stayed open")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.DrainConns(ctx); err != nil {
		t.Fatalf("drain after a panic on the door: %v", err)
	}
}
