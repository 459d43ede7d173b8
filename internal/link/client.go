package link

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// maxIdle caps the idle connections kept per backend; active ones are
// not capped. The figure is the HTTP transport's MaxIdleConnsPerHost.
const maxIdle = 256

// Transport is the proxy's outbound hop. Do sends a routed POST /txn that
// Fits raw on a pooled connection, with no allocation of its own: what a
// cancellable request still pays is context.AfterFunc's two objects (see
// conn.send). As an http.RoundTripper it is an embedded http.Transport:
// health probes and every request the hop does not take go through it
// unchanged.
type Transport struct {
	fallback *http.Transport
	dialer   net.Dialer
	mu       sync.RWMutex
	hosts    map[string]*host
}

// NewTransport returns a Transport over a fresh HTTP fallback.
func NewTransport() *Transport {
	return &Transport{
		fallback: &http.Transport{MaxIdleConnsPerHost: maxIdle},
		hosts:    make(map[string]*host),
	}
}

// host is one backend as the transport knows it.
type host struct {
	addr  string
	dials atomic.Uint64 // connections dialled

	mu   sync.Mutex
	idle []*conn // LIFO: the most recently used connection is reused first
}

// HostStats is what the transport knows about one backend's connections.
type HostStats struct {
	// Dials counts connections dialled for raw round trips since start.
	Dials uint64
	// Idle is the number of pooled idle connections.
	Idle int
}

// Stats reports the pool of the backend at hostport (a URL's Host).
func (t *Transport) Stats(hostport string) HostStats {
	t.mu.RLock()
	h := t.hosts[hostport]
	t.mu.RUnlock()
	if h == nil {
		return HostStats{}
	}
	h.mu.Lock()
	idle := len(h.idle)
	h.mu.Unlock()
	return HostStats{Dials: h.dials.Load(), Idle: idle}
}

// CloseIdleConnections closes the pooled connections and the HTTP
// fallback's; connections carrying a request are untouched.
func (t *Transport) CloseIdleConnections() {
	t.mu.RLock()
	for _, h := range t.hosts {
		h.mu.Lock()
		idle := h.idle
		h.idle = nil
		h.mu.Unlock()
		for _, c := range idle {
			c.nc.Close()
		}
	}
	t.mu.RUnlock()
	t.fallback.CloseIdleConnections()
}

//loadctl:hotpath
func (t *Transport) host(addr string) *host {
	t.mu.RLock()
	h := t.hosts[addr]
	t.mu.RUnlock()
	if h != nil {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h = t.hosts[addr]; h == nil {
		h = &host{addr: addr} //loadctl:allocok audited: first request to a backend
		t.hosts[addr] = h
	}
	return h
}

// headFixed is the longest head appendHead writes less its host and
// query: the request line, a Content-Length of MaxBody and a trace ID.
const headFixed = len("POST /txn? HTTP/1.1\r\nHost: \r\nContent-Length: 1048576\r\n" +
	reqtrace.Header + ": 0123456789abcdef\r\n\r\n")

// Fits reports whether a POST /txn to host (a URL's Host) with this raw
// query and a body of bodyLen bytes can go out raw: the body is within
// MaxBody, the head fits HeadBudget, and the query is one the door takes
// as it is (visible ASCII). Do takes only such a request; the caller
// sends any other through RoundTrip.
//
//loadctl:hotpath
func Fits(host, query string, bodyLen int64) bool {
	if bodyLen < 0 || bodyLen > MaxBody || headFixed+len(host)+len(query) > HeadBudget {
		return false
	}
	for i := 0; i < len(query); i++ {
		if c := query[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// RoundTrip implements http.RoundTripper over the embedded http.Transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.fallback.RoundTrip(req)
}

// Reply is a backend's answer to Do.
type Reply struct {
	Status      int
	ContentType string
	RetryAfter  string
	Signal      string // X-Loadctl-Load
	Body        []byte
}

// hangupGrace is how long Do waits for an answer before it arms the
// front door's close-watcher: an answer within it starts no goroutine.
const hangupGrace = time.Millisecond

// ErrHungUp is Do's error when the client of the door connection it was
// given hung up before the answer: the hop connection was closed under
// the request, as the client's own connection was.
var ErrHungUp = errors.New("link: the client hung up")

// Do sends one routed POST /txn, which must Fit, to the backend at host
// and reads its answer, on the caller's goroutine and with no
// *http.Request or *http.Response: the head (request line, Host,
// Content-Length, X-Loadctl-Trace when traceID is not 0) and the body go
// out in one Write. The answer's body is appended to dst, and the
// connection is back in its pool when Do returns. A cancel of ctx closes
// the connection and fails Do with ctx's error. A refused dial is the
// dial error it is; anything after the write is a plain error.
//
// door is the front-door connection the request came in on, or nil. An
// answer slower than hangupGrace arms door's close-watcher; a client that
// hangs up meanwhile closes the hop connection, so the backend learns of
// it as it would of its own client's hang-up, and Do fails with
// ErrHungUp.
//
//loadctl:hotpath
func (t *Transport) Do(ctx context.Context, host, query string, body []byte, traceID uint64, door *Conn, dst []byte) (Reply, error) {
	c, err := t.conn(ctx, t.host(host))
	if err != nil {
		return Reply{}, err
	}
	c.wbuf = appendHead(c.wbuf[:0], host, query, len(body), traceID)
	c.wbuf = append(c.wbuf, body...) //loadctl:allocok audited: a body beyond the connection's buffer; dropped again by trim when over 64 KiB
	if err := c.send(ctx, door); err != nil {
		return Reply{}, err
	}
	vals := c.kept()
	r := Reply{
		Status:      c.ans.status,
		ContentType: vals[keptType],
		RetryAfter:  vals[keptRetry],
		Signal:      vals[keptSignal],
		Body:        append(dst, c.ans.body...), //loadctl:allocok audited: grows the caller's buffer to the largest answer it keeps
	}
	c.release()
	return r, nil
}

// conn returns a connection ready for one request: the most recently
// idled one that passes the liveness probe, else a fresh one. Idle
// connections the backend has closed (restart, drain, idle timeout) are
// dropped here, before any byte of the request is written, so a stale
// pool never turns into a 502.
//
//loadctl:hotpath
func (t *Transport) conn(ctx context.Context, h *host) (*conn, error) {
	for {
		h.mu.Lock()
		n := len(h.idle)
		if n == 0 {
			h.mu.Unlock()
			break
		}
		c := h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		h.mu.Unlock()
		if c.alive() {
			return c, nil
		}
		c.nc.Close()
	}
	return t.dial(ctx, h) //loadctl:allocok audited: a new connection — pool miss, amortised over the connection's life
}

// dial connects to the backend. A refused or failed connect is returned
// as the *net.OpError{Op: "dial"} it is: nothing was sent.
func (t *Transport) dial(ctx context.Context, h *host) (*conn, error) {
	nc, err := t.dialer.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	h.dials.Add(1)
	c := &conn{h: h, nc: nc}
	c.abort = func() { c.nc.Close() }
	c.hangup = func() {
		c.hungUp.Store(true)
		c.nc.Close()
	}
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.initProbe(raw)
		}
	}
	return c, nil
}

// conn is the proxy end of one hop connection, with everything a round
// trip needs preallocated on it.
type conn struct {
	h  *host
	nc net.Conn

	// Liveness probe state (conncheck_*.go).
	raw      syscall.RawConn
	probe    func(fd uintptr) bool
	probeErr error
	probeBuf [1]byte

	abort func() // closes nc: the context.AfterFunc callback

	// The front door's close-watcher, for Do: door is the client's
	// connection during an exchange, watching is set once the watcher is
	// armed, and hangup, its callback, notes the hang-up in hungUp and
	// closes nc.
	door     *Conn
	watching bool
	hangup   func()
	hungUp   atomic.Bool

	rbuf, wbuf []byte
	ans        answer // the parsed answer

	// The last header values, kept as real strings: a backend rebuilds its
	// load signal once per control interval, so consecutive answers carry
	// identical bytes, cost no allocation here, and hand cluster.ingest the
	// byte-identical string its sigRaw fast path compares against.
	vals [numKept]string
}

// release returns c to its backend's idle pool once its answer is
// consumed, unless the answer said Connection: close.
//
//loadctl:hotpath
func (c *conn) release() {
	if c.ans.close {
		c.nc.Close()
		return
	}
	c.rbuf, c.wbuf = trim(c.rbuf), trim(c.wbuf)
	h := c.h
	h.mu.Lock()
	if len(h.idle) < maxIdle {
		h.idle = append(h.idle, c) //loadctl:allocok audited: grows the idle stack to the peak concurrency once; the steady state reuses its capacity
		c = nil
	}
	h.mu.Unlock()
	if c != nil {
		c.nc.Close()
	}
}

// send writes the request in wbuf and reads the answer. ctx is honoured
// by closing the connection, which fails the pending read or write; a
// connection that was ever aborted, or that still owes an answer, never
// returns to the pool.
//
//loadctl:hotpath
func (c *conn) send(ctx context.Context, door *Conn) error {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort) //loadctl:allocok audited: two objects per cancellable request, which every request relayed through net/http is — the price of honouring a cancel without a reader goroutine per connection
	}
	err := c.exchange(door)
	if stop != nil && !stop() && err == nil {
		err = ctx.Err() // cancelled under us: c.abort is closing the socket
	}
	if err != nil {
		c.nc.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// appendHead appends the head of a routed POST /txn: the request line,
// Host, Content-Length and, when traced, X-Loadctl-Trace.
//
//loadctl:hotpath
func appendHead(b []byte, host, query string, bodyLen int, traceID uint64) []byte {
	b = append(b, "POST /txn"...)
	if query != "" {
		b = append(b, '?')
		b = append(b, query...)
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(bodyLen), 10)
	if traceID != 0 {
		b = append(b, "\r\n"+reqtrace.Header+": "...)
		b = reqtrace.AppendID(b, traceID)
	}
	return append(b, "\r\n\r\n"...)
}

// exchange is the wire half of send: one write, then the answer. With a
// door, the read runs under the hang-up grace (read), and the watcher it
// may have armed is ended before the connection can be reused.
//
//loadctl:hotpath
func (c *conn) exchange(door *Conn) error {
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	if door == nil {
		return c.readAnswer()
	}
	c.door = door
	_ = c.nc.SetReadDeadline(door.door.now().Add(hangupGrace))
	err := c.readAnswer()
	if c.watching {
		c.watching = false
		door.endWatch()
		if c.hungUp.Load() {
			err = ErrHungUp
		}
	} else {
		_ = c.nc.SetReadDeadline(time.Time{})
	}
	c.door = nil
	return err
}

// read reads from the backend. Past the hang-up grace, a read that would
// have failed on the deadline arms the door's close-watcher and reads on
// without one.
//
//loadctl:hotpath
func (c *conn) read(p []byte) (int, error) {
	n, err := c.nc.Read(p)
	if n == 0 && c.door != nil && !c.watching && errors.Is(err, os.ErrDeadlineExceeded) {
		_ = c.nc.SetReadDeadline(time.Time{})
		c.watching = true
		c.door.WatchClose(c.hangup) //loadctl:allocok audited: an answer slower than the grace only — the watcher's goroutine and channel
		n, err = c.nc.Read(p)
	}
	return n, err
}

// Errors an answer fails with; the request was sent, so the proxy
// answers 502 and does not replay.
var (
	errAnswer = errors.New("link: answer is not a plain HTTP/1.1 answer with one Content-Length")
	errExtra  = errors.New("link: bytes beyond the answer")
)

// readAnswer reads one answer into rbuf and parses it into c.ans. The
// first read asks for everything buffered, so an answer that arrived
// whole costs one read.
//
//loadctl:hotpath
func (c *conn) readAnswer() error {
	if cap(c.rbuf) < HeadBudget {
		c.rbuf = make([]byte, HeadBudget) //loadctl:allocok audited: a connection's first answer, or the first after an oversized buffer was dropped
	}
	buf := c.rbuf[:cap(c.rbuf)]
	n := 0
	for {
		m, err := c.read(buf[n:])
		n += m
		done, perr := parseAnswer(buf[:n], &c.ans)
		if perr != nil {
			return perr
		}
		if done {
			break
		}
		if n >= HeadBudget {
			return errAnswer // a head longer than the budget
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	total := c.ans.n + c.ans.bodyLen
	if n > total {
		return errExtra
	}
	if total > len(buf) {
		grown := make([]byte, total) //loadctl:allocok audited: an answer beyond the connection's buffer — bodies over 4 KiB only, bounded by MaxAnswer
		copy(grown, buf[:n])
		buf = grown
	}
	c.rbuf = buf
	for n < total {
		m, err := c.read(buf[n:total])
		if n += m; err != nil && n < total {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	c.ans.body = buf[c.ans.n:total]
	return nil
}

// The header values a response carries, in their slots of conn.vals.
const (
	keptType = iota
	keptRetry
	keptSignal
	numKept
)

// keptNames are the canonical names of the kept headers.
var keptNames = [numKept]string{"Content-Type", "Retry-After", loadsig.Header}

// answer is one parsed answer. The strings and body alias the read buffer
// until the next round trip on the connection.
type answer struct {
	status  int
	n       int // head length, blank line included
	bodyLen int
	close   bool            // Connection: close
	vals    [numKept]string // the first value of each kept header; "" if absent
	body    []byte
}

// The header fields parseAnswer acts on besides the kept ones.
const (
	fieldLength = numKept + iota
	fieldEncoding
	fieldConnection
	fieldOther
)

// field classifies a header name: the exact canonical spelling first, as
// the front door writes it, and a case-insensitive match only on a miss.
//
//loadctl:hotpath
func field(name string) int {
	switch name {
	case "Content-Type":
		return keptType
	case "Retry-After":
		return keptRetry
	case loadsig.Header:
		return keptSignal
	case "Content-Length":
		return fieldLength
	case "Connection":
		return fieldConnection
	case "Date", "X-Content-Type-Options", reqtrace.Header:
		return fieldOther
	}
	for f, canon := range keptNames {
		if strings.EqualFold(name, canon) {
			return f
		}
	}
	switch {
	case strings.EqualFold(name, "Content-Length"):
		return fieldLength
	case strings.EqualFold(name, "Transfer-Encoding"):
		return fieldEncoding
	case strings.EqualFold(name, "Connection"):
		return fieldConnection
	}
	return fieldOther
}

// parseAnswer parses b, the bytes read so far of one answer, into a. It
// reports done once the head is complete, and fails whatever it is not
// sure of: it takes only an HTTP/1.1 status line of 200 or above with a
// body (not 204 or 304), CRLF line ends, header names that are tokens and
// values of field bytes, none folded, exactly one all-digit
// Content-Length within MaxAnswer and no Transfer-Encoding. FuzzHopResponse
// holds it to http.ReadResponse.
//
//loadctl:hotpath
func parseAnswer(b []byte, a *answer) (done bool, err error) {
	*a = answer{}
	s := view(b)
	end := strings.Index(s, "\r\n\r\n")
	if end < 0 {
		return false, nil
	}
	a.n = end + 4
	line, rest, _ := strings.Cut(s[:end+2], "\r\n")
	if len(line) < len("HTTP/1.1 200") || line[:9] != "HTTP/1.1 " ||
		len(line) > 12 && line[12] != ' ' || !isFieldValue(line[12:]) {
		return false, errAnswer
	}
	for i := 9; i < 12; i++ {
		d := line[i]
		if d < '0' || d > '9' {
			return false, errAnswer
		}
		a.status = a.status*10 + int(d-'0')
	}
	if a.status < 200 || a.status == http.StatusNoContent || a.status == http.StatusNotModified {
		return false, errAnswer
	}
	lengths, seen := 0, 0
	for rest != "" {
		line, rest, _ = strings.Cut(rest, "\r\n")
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) || !isFieldValue(value) {
			return false, errAnswer
		}
		value = trimOWS(value)
		switch f := field(name); f {
		case fieldLength:
			lengths++
			if a.bodyLen, ok = parseLength(value, MaxAnswer); !ok {
				return false, errAnswer
			}
		case fieldEncoding:
			return false, errAnswer
		case fieldConnection:
			a.close = a.close || hasClose(value)
		case fieldOther:
		default:
			if seen&(1<<f) == 0 { // the first one counts, as with Header.Get
				seen |= 1 << f
				a.vals[f] = value
			}
		}
	}
	if lengths != 1 {
		return false, errAnswer
	}
	return true, nil
}

// hasClose reports whether a Connection value lists the close token,
// compared in ASCII case only, as net/http does.
//
//loadctl:hotpath
func hasClose(v string) bool {
	for v != "" {
		var tok string
		tok, v, _ = strings.Cut(v, ",")
		tok = trimOWS(tok)
		if len(tok) != len("close") {
			continue
		}
		match := true
		for i := 0; i < len(tok); i++ {
			if tok[i]|0x20 != "close"[i] {
				match = false
			}
		}
		if match {
			return true
		}
	}
	return false
}

// keep returns prev when it already equals the view v, else a copy of v.
//
//loadctl:hotpath
func keep(prev, v string) string {
	if prev == v {
		return prev
	}
	return strings.Clone(v) //loadctl:allocok audited: the header value changed — once per backend control interval for the load signal, shed answers for Retry-After
}

// kept returns the parsed answer's kept header values as strings that
// outlive the read buffer, "" for a header the answer lacks. c.vals
// caches the last of each, so a value repeated from the last answer
// costs nothing.
//
//loadctl:hotpath
func (c *conn) kept() (vals [numKept]string) {
	for f, v := range c.ans.vals {
		if v != "" {
			c.vals[f] = keep(c.vals[f], v)
			vals[f] = c.vals[f]
		}
	}
	return vals
}
