package link

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// maxIdle caps the idle connections kept per backend; active ones are
// not capped. The figure is the HTTP transport's MaxIdleConnsPerHost.
const maxIdle = 256

// Transport is the proxy's outbound http.RoundTripper. A POST /txn over
// plain http with a body of known length within MaxBody and a head within
// HeadBudget goes out raw on a pooled connection; everything else —
// health probes, oversized or chunked bodies, overlong queries — goes
// through an embedded http.Transport unchanged.
//
// The *http.Response of a raw round trip, its header map and its body
// belong to the connection and are reused: they are valid until
// Body.Close, which returns the connection to the pool. That is how
// cluster.forward already uses a response, and it leaves the round trip
// with no allocation of its own: what a relayed request still pays is
// context.AfterFunc's two objects (see conn.roundTrip).
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

// linkable reports whether req goes out raw: a routed transaction whose
// body length is known and within MaxBody, whose head fits HeadBudget,
// and whose query the door takes as it is (visible ASCII).
//
//loadctl:hotpath
func linkable(req *http.Request) bool {
	u := req.URL
	if req.Method != http.MethodPost || u.Scheme != "http" || u.Path != "/txn" ||
		req.ContentLength < 0 || req.ContentLength > MaxBody ||
		headFixed+len(u.Host)+len(u.RawQuery) > HeadBudget {
		return false
	}
	for i := 0; i < len(u.RawQuery); i++ {
		if c := u.RawQuery[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// RoundTrip implements http.RoundTripper.
//
//loadctl:hotpath
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !linkable(req) {
		return t.fallback.RoundTrip(req)
	}
	c, err := t.conn(req.Context(), t.host(req.URL.Host))
	if err != nil {
		closeBody(req)
		return nil, err
	}
	return c.roundTrip(req)
}

//loadctl:hotpath
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
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
	c := &conn{h: h, nc: nc, hdr: make(http.Header, 4)}
	c.abort = func() { c.nc.Close() }
	c.body.c = c
	c.res = http.Response{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: c.hdr, Body: &c.body}
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

	rbuf, wbuf []byte
	ans        answer // the parsed answer

	// The last header values, kept as real strings: a backend rebuilds its
	// load signal once per control interval, so consecutive answers carry
	// identical bytes, cost no allocation here, and hand cluster.ingest the
	// byte-identical string its sigRaw fast path compares against.
	vals [numKept]string

	res  http.Response
	hdr  http.Header
	one  [numKept][1]string // backing for the header map's one-element values
	body body
}

// body is a raw round trip's response Body.
type body struct {
	c    *conn
	b    []byte
	open bool
}

func (b *body) Read(p []byte) (int, error) {
	if len(b.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.b)
	b.b = b.b[n:]
	return n, nil
}

// WriteTo lets io.Copy relay the body in one Write.
//
//loadctl:hotpath
func (b *body) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b.b)
	b.b = b.b[n:]
	return int64(n), err
}

// Close returns the connection to its backend's idle pool, unless the
// answer said Connection: close.
//
//loadctl:hotpath
func (b *body) Close() error {
	if !b.open {
		return nil
	}
	b.open = false
	c := b.c
	if c.ans.close {
		return c.nc.Close()
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
	return nil
}

// roundTrip sends req and reads the answer. The request's context is
// honoured by closing the connection, which fails the pending read or
// write; a connection that was ever aborted, or that still owes an
// answer, never returns to the pool.
//
//loadctl:hotpath
func (c *conn) roundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, c.abort) //loadctl:allocok audited: two objects per cancellable request, which every relayed one is — the price of honouring a cancel without a reader goroutine per connection
	}
	err := c.exchange(req)
	if stop != nil && !stop() && err == nil {
		err = ctx.Err() // cancelled under us: c.abort is closing the socket
	}
	if err != nil {
		c.nc.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return c.response(req), nil
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

// exchange is the wire half of roundTrip: one write, then the answer.
//
//loadctl:hotpath
func (c *conn) exchange(req *http.Request) error {
	traceID, _ := reqtrace.FromRequest(req)
	n := int(req.ContentLength)
	if req.Body == nil {
		n = 0
	}
	c.wbuf = appendHead(c.wbuf[:0], req.URL.Host, req.URL.RawQuery, n, traceID)
	if n > 0 {
		head := len(c.wbuf)
		if cap(c.wbuf) < head+n {
			c.wbuf = slices.Grow(c.wbuf, n) //loadctl:allocok audited: a body beyond the connection's buffer; dropped again by trim when over 64 KiB
		}
		c.wbuf = c.wbuf[:head+n]
		_, err := io.ReadFull(req.Body, c.wbuf[head:])
		closeBody(req)
		if err != nil {
			return fmt.Errorf("link: read request body: %w", err) //loadctl:allocok audited: failure path
		}
	} else {
		closeBody(req)
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return err
	}
	return c.readAnswer()
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
		m, err := c.nc.Read(buf[n:])
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
	if _, err := io.ReadFull(c.nc, buf[n:total]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	c.ans.body = buf[c.ans.n:total]
	return nil
}

// The header values a response carries, in their slots of conn.vals.
const (
	keptType = iota
	keptRetry
	keptSignal
	keptTrace
	numKept
)

// keptNames are the canonical names of the kept headers.
var keptNames = [numKept]string{"Content-Type", "Retry-After", loadsig.Header, reqtrace.Header}

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
	case reqtrace.Header:
		return keptTrace
	case "Content-Length":
		return fieldLength
	case "Connection":
		return fieldConnection
	case "Date", "X-Content-Type-Options":
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
		len(line) > 12 && line[12] != ' ' || !IsFieldValue(line[12:]) {
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
		if !ok || !IsToken(name) || !IsFieldValue(value) {
			return false, errAnswer
		}
		value = TrimOWS(value)
		switch f := field(name); f {
		case fieldLength:
			lengths++
			if a.bodyLen, ok = ParseLength(value, MaxAnswer); !ok {
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
		tok = TrimOWS(tok)
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
	return strings.Clone(v) //loadctl:allocok audited: the header value changed — once per backend control interval for the load signal, shed answers for Retry-After, head-sampled requests for the trace echo
}

// response rebuilds the connection's *http.Response from the parsed
// answer, with exactly the headers cluster.forward and ingest read.
//
//loadctl:hotpath
func (c *conn) response(req *http.Request) *http.Response {
	clear(c.hdr)
	for f, v := range c.ans.vals {
		if v != "" {
			c.vals[f] = keep(c.vals[f], v)
			c.one[f][0] = c.vals[f]
			c.hdr[keptNames[f]] = c.one[f][:]
		}
	}
	c.body.b, c.body.open = c.ans.body, true
	c.res.StatusCode = c.ans.status
	c.res.ContentLength = int64(len(c.ans.body))
	c.res.Close = c.ans.close
	c.res.Request = req
	return &c.res
}
