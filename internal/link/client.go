package link

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
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
// plain http with a body of known length within MaxBody crosses the link;
// everything else — health probes, oversized or chunked bodies, backends
// that refused the upgrade — goes through HTTP unchanged.
//
// The *http.Response of a link round trip, its header map and its body
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
	addr string

	// httpOnly is set when the backend answered the upgrade with anything
	// but 101, and cleared at its next dead→alive transition: the moment a
	// different binary may be listening. The transport sees that
	// transition itself, because the health loop's probes pass through
	// it — down is set by any exchange that failed at the connection
	// level, and the first one to succeed afterwards clears both.
	httpOnly atomic.Bool
	down     atomic.Bool
	// linked is true once an upgrade succeeded and until one is refused.
	linked atomic.Bool
	dials  atomic.Uint64 // connections that completed the upgrade

	mu   sync.Mutex
	idle []*conn // LIFO: the most recently used connection is reused first
}

// HostStats is what the transport knows about one backend's wire.
type HostStats struct {
	// Link is true when routed transactions to the backend cross the
	// link: its last upgrade succeeded. False before the first routed
	// transaction and for an HTTP-only backend.
	Link bool
	// Dials counts link connections established since start.
	Dials uint64
	// Idle is the number of pooled idle link connections.
	Idle int
}

// Stats reports the wire state of the backend at hostport (a URL's Host).
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
	return HostStats{Link: h.linked.Load(), Dials: h.dials.Load(), Idle: idle}
}

// CloseIdleConnections closes the pooled link connections and the HTTP
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

// linkable reports whether req can cross the link: a routed transaction
// whose body length is known and fits a frame.
//
//loadctl:hotpath
func linkable(req *http.Request) bool {
	u := req.URL
	return req.Method == http.MethodPost && u.Scheme == "http" && u.Path == "/txn" &&
		req.ContentLength >= 0 && req.ContentLength <= MaxBody && len(u.RawQuery) <= maxQuery
}

// RoundTrip implements http.RoundTripper.
//
//loadctl:hotpath
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.host(req.URL.Host)
	if !linkable(req) || h.httpOnly.Load() {
		return t.viaHTTP(h, req)
	}
	c, err := t.conn(req.Context(), h)
	if err == errRefused {
		// The backend answered the upgrade in plain HTTP: it is alive and
		// nothing but GET /link was sent, so this request goes the old way.
		h.httpOnly.Store(true)
		h.linked.Store(false)
		return t.viaHTTP(h, req)
	}
	if err != nil {
		h.seen(req.Context(), err)
		closeBody(req)
		return nil, err
	}
	resp, err := c.roundTrip(req)
	h.seen(req.Context(), err)
	return resp, err
}

//loadctl:hotpath
func (t *Transport) viaHTTP(h *host, req *http.Request) (*http.Response, error) {
	resp, err := t.fallback.RoundTrip(req)
	h.seen(req.Context(), err)
	return resp, err
}

// seen folds one exchange's outcome into the host's dead→alive tracking.
// A failure the caller's own cancellation caused says nothing about the
// backend.
//
//loadctl:hotpath
func (h *host) seen(ctx context.Context, err error) {
	if err != nil {
		if ctx.Err() == nil {
			h.down.Store(true)
		}
		return
	}
	if h.down.Load() {
		h.down.Store(false)
		h.httpOnly.Store(false)
	}
}

//loadctl:hotpath
func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// errRefused is conn's answer for a backend that speaks HTTP but not the
// link.
var errRefused = errors.New("link: upgrade refused")

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

// dial connects and negotiates the upgrade. A refused or failed connect
// is returned as the *net.OpError{Op: "dial"} it is. A handshake that
// breaks is wrapped as one too: only GET /link was sent, the transaction
// never left, and to the proxy's failover both mean "never reached the
// backend". A well-formed HTTP answer other than 101 is errRefused.
func (t *Transport) dial(ctx context.Context, h *host) (*conn, error) {
	nc, err := t.dialer.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	err = handshake(nc, h.addr)
	if !stop() {
		nc.Close()
		return nil, ctx.Err()
	}
	if err != nil {
		nc.Close()
		if err != errRefused {
			err = &net.OpError{Op: "dial", Net: "tcp", Addr: nc.RemoteAddr(), Err: err}
		}
		return nil, err
	}
	h.dials.Add(1)
	h.linked.Store(true)
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

// handshake sends the upgrade request on nc and reads the answer.
func handshake(nc net.Conn, hostport string) error {
	_, err := io.WriteString(nc, "GET "+Path+" HTTP/1.1\r\nHost: "+hostport+
		"\r\nConnection: Upgrade\r\nUpgrade: "+Proto+"\r\n\r\n")
	if err != nil {
		return fmt.Errorf("link handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("link handshake: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), Proto) {
		return errRefused
	}
	if br.Buffered() > 0 {
		return fmt.Errorf("link handshake: %w", ErrPipelined)
	}
	return nil
}

// conn is the proxy end of one link connection, with everything a round
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
	fr         Response // the decoded answer frame

	// The last header values, kept as real strings: a backend rebuilds its
	// load signal once per control interval, so consecutive answers carry
	// identical bytes, cost no allocation here, and hand cluster.ingest the
	// byte-identical string its sigRaw fast path compares against.
	sig, retry, ctype string

	res  http.Response
	hdr  http.Header
	vals [4][1]string // backing for the header map's one-element values
	body body
}

// body is a link response's Body.
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

// Close returns the connection to its backend's idle pool.
//
//loadctl:hotpath
func (b *body) Close() error {
	if !b.open {
		return nil
	}
	b.open = false
	c := b.c
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

// keep returns prev when it already equals the view v, else a copy of v.
//
//loadctl:hotpath
func keep(prev, v string) string {
	if prev == v {
		return prev
	}
	return strings.Clone(v) //loadctl:allocok audited: the header value changed — once per backend control interval for the load signal, shed answers for Retry-After
}

// roundTrip sends req as one frame and reads the answer. The request's
// context is honoured by closing the connection, which fails the pending
// read or write; a connection that was ever aborted, or that still owes
// an answer, never returns to the pool.
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

// exchange is the wire half of roundTrip: one write, one read.
//
//loadctl:hotpath
func (c *conn) exchange(req *http.Request) error {
	traceID, _ := reqtrace.FromRequest(req)
	n := int(req.ContentLength)
	if req.Body == nil {
		n = 0
	}
	c.wbuf = appendRequestHead(c.wbuf[:0], traceID, req.URL.RawQuery, n)
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
	payload, buf, err := readFrame(c.nc, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return err
	}
	return ParseResponse(payload, &c.fr)
}

// response rebuilds the connection's *http.Response from the decoded
// frame, with exactly the headers cluster.forward and ingest read.
//
//loadctl:hotpath
func (c *conn) response(req *http.Request) *http.Response {
	fr := &c.fr
	clear(c.hdr)
	if fr.ContentType != "" {
		c.ctype = keep(c.ctype, fr.ContentType)
		c.setHeader(0, "Content-Type", c.ctype)
	}
	if fr.RetryAfter != "" {
		c.retry = keep(c.retry, fr.RetryAfter)
		c.setHeader(1, "Retry-After", c.retry)
	}
	if fr.Signal != "" {
		c.sig = keep(c.sig, fr.Signal)
		c.setHeader(2, loadsig.Header, c.sig)
	}
	if fr.TraceID != 0 {
		c.setHeader(3, reqtrace.Header, reqtrace.FormatID(fr.TraceID)) //loadctl:allocok audited: head-sampled requests only — the backend echoes the ID for one request in SampleEvery
	}
	c.body.b, c.body.open = fr.Body, true
	c.res.StatusCode = fr.Status
	c.res.ContentLength = int64(len(fr.Body))
	c.res.Request = req
	return &c.res
}

//loadctl:hotpath
func (c *conn) setHeader(slot int, key, value string) {
	c.vals[slot][0] = value
	c.hdr[key] = c.vals[slot][:]
}
