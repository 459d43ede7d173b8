package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/link"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// The front door: POST /txn served over HTTP/1.1 keep-alive by hand, at
// the listener loadctl.Serve owns, with every other request handed to the
// unchanged net/http server. It is the third thin adapter of runTxn,
// beside handleTxn (net/http) and ServeLink (the proxy's link).
//
// Each connection gets one goroutine, which peeks each request head in the
// connection's 4 KiB bufio.Reader. A head the door is sure of is served
// here: runTxn, then the answer in one Write from the connection's own
// buffer. Anything else is decided before a byte is consumed and handed to
// http.Server through the listener FrontDoor returns, the peeked bytes
// replayed; the connection then stays on net/http, so a GET /link upgrade
// goes through net/http's hijack as before.

// doorBufSize is the head reader's size: a longer head goes to net/http.
const doorBufSize = 4096

// aLongTimeAgo is a read deadline that has always passed: setting it fails
// a blocked Read at once without closing the connection.
var aLongTimeAgo = time.Unix(1, 0)

// FrontDoor serves POST /txn on the connections ln accepts and returns the
// listener of everything else, for http.Server:
//
//	hs.Serve(s.FrontDoor(ln))
//
// Closing the returned listener (http.Server.Shutdown does) closes ln and
// returns once the door accepts no more. The door's own connections are
// not net/http's: DrainConns and CloseConns end them.
func (s *Server) FrontDoor(ln net.Listener) net.Listener {
	l := &doorListener{Listener: ln, conns: make(chan net.Conn), done: make(chan struct{})}
	go l.acceptLoop(s)
	return l
}

// doorListener is net/http's side of the front door: Accept returns the
// connections the door handed off.
type doorListener struct {
	net.Listener               // the socket; closing it ends acceptLoop
	conns        chan net.Conn // handed-off connections
	done         chan struct{} // closed when acceptLoop has ended
	err          error         // why it ended; read after done
}

func (l *doorListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, l.err
	}
}

func (l *doorListener) Close() error {
	err := l.Listener.Close()
	<-l.done
	return err
}

// acceptLoop gives every accepted connection its own goroutine until ln
// fails. Temporary accept errors back off as http.Server's do: 5 ms,
// doubling up to 1 s.
func (l *doorListener) acceptLoop(s *Server) {
	defer close(l.done)
	var delay time.Duration
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("server: accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			l.err = err
			return
		}
		delay = 0
		go s.serveDoor(l, nc)
	}
}

// handoff gives c to http.Server, or closes it once the door accepts no
// more.
func (l *doorListener) handoff(c net.Conn) {
	select {
	case l.conns <- c:
	case <-l.done:
		c.Close()
	}
}

// doorConn is one front-door connection.
type doorConn struct {
	s    *Server
	nc   net.Conn
	br   *bufio.Reader    // reads through the doorConn itself (Read)
	head doorHead         // the request being served
	lim  io.LimitedReader // its body
	out  []byte           // the answer, written in one Write
	// idle is set while the connection waits for a request's first byte,
	// the only state in which Interrupt cuts a read.
	idle atomic.Bool
	// stash holds a byte a close-watcher read instead of a hang-up, the
	// start of a pipelined request, for the next Read.
	stash   [1]byte
	stashed bool
	// watched is closed when the close-watcher's read has returned; nil
	// while none is armed. endWatch disarms it.
	watched chan struct{}
	// date is the Date header value of second dateSec.
	date    []byte
	dateSec int64
}

// serveDoor runs one connection: the door serves its requests until one
// is not the door's, which hands the connection to net/http, or the
// connection ends. A panicking request is recovered, logged and ends its
// connection, not the process — what net/http did for /txn before the
// door.
func (s *Server) serveDoor(l *doorListener, nc net.Conn) {
	c := &doorConn{s: s, nc: nc, dateSec: -1}
	c.br = bufio.NewReaderSize(c, doorBufSize)
	s.holdConn(c, false)
	handoff := false
	defer func() {
		if p := recover(); p != nil {
			log.Printf("server: panic serving %v: %v\n%s", nc.RemoteAddr(), p, debug.Stack())
			handoff = false
		}
		s.dropConn(c)
		if handoff {
			l.handoff(&replayConn{Conn: nc, door: c})
		} else {
			nc.Close()
		}
	}()
	handoff = c.serve()
}

// serve answers requests until the connection ends (false) or a request is
// not the door's (true: hand the connection to net/http, nothing of that
// request consumed).
//
//loadctl:hotpath
func (c *doorConn) serve() (handoff bool) {
	h := &c.head
	for {
		if c.br.Buffered() == 0 && !c.stashed {
			// Idle between requests: a drain ends the connection here.
			c.idle.Store(true)
			if c.s.connsDraining.Load() {
				return false
			}
			_, err := c.br.Peek(1)
			c.idle.Store(false)
			if err != nil {
				return false
			}
		}
		switch c.readHead() {
		case headHandoff:
			return true
		case headMore:
			return false // the connection ended inside a head
		}
		// The head is buffered, so Discard cannot fail; it leaves the bytes
		// in place, and h.query, which aliases them, is copied by runTxn
		// before the body is read.
		_, _ = c.br.Discard(h.n)
		var body io.Reader
		if h.bodyLen > 0 {
			c.lim = io.LimitedReader{R: c.br, N: h.bodyLen}
			body = &c.lim
		}
		sc := getTxnScratch()
		// As on the link: an admitted transaction runs to completion, and a
		// queued one learns of a hang-up through the close-watcher.
		res := c.s.runTxn(context.Background(), sc, h.query, body, h.traceID, c)
		c.endWatch()
		if res.status == 0 {
			putTxnScratch(sc)
			return false // the client hung up: nobody to answer
		}
		keep := !h.close && !c.s.draining.Load() && !c.s.connsDraining.Load()
		if c.lim.N > 0 {
			// What the JSON decoder left of the body.
			if _, err := c.br.Discard(int(c.lim.N)); err != nil {
				keep = false
			}
			c.lim.N = 0
		}
		c.appendAnswer(&res, keep)
		putTxnScratch(sc) // after the answer is built: res.body aliases sc.buf
		if _, err := c.nc.Write(c.out); err != nil || !keep {
			return false
		}
	}
}

// readHead peeks until the buffered bytes hold a complete head the door
// serves (parsed into c.head) or are known not to. headMore means the
// connection failed first.
//
//loadctl:hotpath
func (c *doorConn) readHead() headVerdict {
	for {
		b, _ := c.br.Peek(c.br.Buffered())
		if v := parseDoorHead(b, &c.head); v != headMore {
			return v
		}
		if len(b) == doorBufSize {
			return headHandoff // a head larger than the reader
		}
		if _, err := c.br.Peek(len(b) + 1); err != nil {
			return headMore
		}
	}
}

// appendAnswer renders res into c.out as an HTTP/1.1 answer with the
// header set net/http gives handleTxn's answer.
//
//loadctl:hotpath
func (c *doorConn) appendAnswer(res *txnResult, keep bool) {
	b := append(c.out[:0], "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(res.status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(res.status)...)
	b = appendHeader(b, "Content-Type", res.contentType)
	if res.contentType == contentText {
		b = appendHeader(b, "X-Content-Type-Options", "nosniff") // as http.Error does
	}
	if res.signal != "" {
		b = appendHeader(b, loadsig.Header, res.signal)
	}
	if res.retryAfter != "" {
		b = appendHeader(b, "Retry-After", res.retryAfter)
	}
	if res.echo != 0 {
		b = append(b, "\r\n"+reqtrace.Header+": "...)
		b = reqtrace.AppendID(b, res.echo)
	}
	if !keep {
		b = appendHeader(b, "Connection", "close")
	}
	b = append(b, "\r\nDate: "...)
	b = append(b, c.httpDate()...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(res.body)), 10)
	b = append(b, "\r\n\r\n"...)
	c.out = append(b, res.body...)
}

//loadctl:hotpath
func appendHeader(b []byte, name, value string) []byte {
	b = append(b, "\r\n"...)
	b = append(b, name...)
	b = append(b, ": "...)
	return append(b, value...)
}

// httpDate returns the Date header value, rendered at most once a second.
// The clock is the hot path's: the server's start plus the monotonic time
// since.
//
//loadctl:hotpath
func (c *doorConn) httpDate() []byte {
	now := c.s.start.Add(time.Since(c.s.start))
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// Read is the head reader's source: a stashed byte first, then the socket.
func (c *doorConn) Read(p []byte) (int, error) {
	if c.stashed && len(p) > 0 {
		p[0] = c.stash[0]
		c.stashed = false
		return 1, nil
	}
	return c.nc.Read(p)
}

// Interrupt ends the connection if it is idle; a busy one answers with
// Connection: close and ends after its answer.
func (c *doorConn) Interrupt() {
	if c.idle.Load() {
		_ = c.nc.SetReadDeadline(aLongTimeAgo)
	}
}

func (c *doorConn) Close() error { return c.nc.Close() }

// WatchClose implements closeWatcher around a contended admission: it
// calls cancel if the client closes the connection while the request
// waits. Unlike the link's watcher, a byte that arrives instead is kept,
// as the start of a pipelined request, and ends the watch without a
// hang-up; net/http's background read does the same.
//
// The stop it returns does nothing: the watch ends in endWatch, once
// runTxn has returned. Ending it at admission would put two goroutine
// switches (wake the watcher, wait for it) between the grant and the
// transaction, while the slot is held; with a binding limit that is the
// throughput, and how long the switches take depends on which core the
// scheduler finds free. A cancel after admission is harmless: runTxn has
// done with the context by then.
func (c *doorConn) WatchClose(cancel context.CancelFunc) (stop func()) {
	if c.stashed {
		return noStop // the stash is full: the client is still talking
	}
	done := make(chan struct{})
	c.watched = done
	go func() {
		defer close(done)
		n, err := c.nc.Read(c.stash[:])
		switch {
		case n > 0:
			c.stashed = true
		case errors.Is(err, os.ErrDeadlineExceeded):
			// endWatch
		default:
			cancel()
		}
	}()
	return noStop
}

func noStop() {}

// endWatch ends an armed close-watcher and waits for it to be gone, so
// that the connection's goroutine reads the socket (and the stash) alone
// again.
//
//loadctl:hotpath
func (c *doorConn) endWatch() {
	if c.watched == nil {
		return
	}
	_ = c.nc.SetReadDeadline(aLongTimeAgo)
	<-c.watched
	c.watched = nil
	_ = c.nc.SetReadDeadline(time.Time{})
}

// replayConn is a handed-off connection as net/http reads it: first what
// the door's reader holds (the head it peeked and anything after it), then
// straight from the socket, so a link connection upgraded through net/http
// pays no extra copy.
type replayConn struct {
	net.Conn
	door *doorConn // nil once its bytes are replayed
}

func (r *replayConn) Read(p []byte) (int, error) {
	if d := r.door; d != nil {
		if d.br.Buffered() > 0 || d.stashed {
			return d.br.Read(p)
		}
		r.door = nil
	}
	return r.Conn.Read(p)
}

// CloseWrite lets net/http half-close the socket as it does unwrapped.
func (r *replayConn) CloseWrite() error {
	if cw, ok := r.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// doorHead is what the door takes from a request head it serves.
type doorHead struct {
	n       int    // head length, the blank line included
	query   string // the raw query, aliasing the head
	bodyLen int64  // Content-Length; 0 without one
	close   bool   // Connection: close
	traceID uint64 // X-Loadctl-Trace; 0 if absent or malformed
}

// headVerdict is parseDoorHead's answer.
type headVerdict uint8

const (
	headMore    headVerdict = iota // so far a head the door serves: read on
	headServe                      // a complete head the door serves
	headHandoff                    // not the door's: net/http's
)

const (
	doorTarget = "POST /txn"
	doorProto  = " HTTP/1.1"
	// maxLenDigits bounds Content-Length's digits; link.MaxBody has 7.
	maxLenDigits = 8
)

// parseDoorHead classifies b, the buffered bytes from the start of a
// request head. The door serves only what it is sure net/http reads the
// same way (FuzzFrontDoorHead holds it to http.ReadRequest): every line
// ends in CRLF; the request line is exactly POST /txn[?query] HTTP/1.1
// with a target of visible ASCII; header names are tokens and values
// field bytes, none folded; there is exactly one Host, of host characters,
// and at most one Content-Length, all digits and at most link.MaxBody;
// Connection names only close and keep-alive; and there is no
// Transfer-Encoding, Expect or Upgrade. A prefix of such a head is
// headMore. h.query aliases b.
//
//loadctl:hotpath
func parseDoorHead(b []byte, h *doorHead) headVerdict {
	*h = doorHead{}
	s := view(b)
	if n := min(len(s), len(doorTarget)); s[:n] != doorTarget[:n] {
		return headHandoff
	}
	line, p, v := headLine(s, 0)
	if v != headServe {
		return v
	}
	target, ok := strings.CutSuffix(line[len(doorTarget):], doorProto)
	if !ok {
		return headHandoff
	}
	for i := 0; i < len(target); i++ {
		if c := target[i]; c <= ' ' || c >= 0x7f {
			return headHandoff
		}
	}
	if target != "" {
		if target[0] != '?' {
			return headHandoff // /txnx, /txn/...
		}
		h.query = target[1:]
	}
	hosts, lengths, traced := 0, 0, false
	for {
		if line, p, v = headLine(s, p); v != headServe {
			return v
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) || !isFieldValue(value) {
			return headHandoff
		}
		value = trimOWS(value)
		switch {
		case strings.EqualFold(name, "Host"):
			hosts++
			if !isHost(value) {
				return headHandoff
			}
		case strings.EqualFold(name, "Content-Length"):
			lengths++
			if h.bodyLen, ok = parseBodyLen(value); !ok {
				return headHandoff
			}
		case strings.EqualFold(name, "Connection"):
			if !parseConnection(value, h) {
				return headHandoff
			}
		case strings.EqualFold(name, reqtrace.Header):
			if !traced { // the first one counts, as with Header.Get
				traced = true
				h.traceID, _ = reqtrace.ParseID(value)
			}
		case strings.EqualFold(name, "Transfer-Encoding"),
			strings.EqualFold(name, "Expect"),
			strings.EqualFold(name, "Upgrade"):
			return headHandoff
		}
	}
	if hosts != 1 || lengths > 1 {
		return headHandoff
	}
	h.n = p
	return headServe
}

// headLine returns the line of s from p without its CRLF and where the
// next one starts: headMore if it is not complete yet, headHandoff if it
// ends in a bare LF.
//
//loadctl:hotpath
func headLine(s string, p int) (line string, next int, v headVerdict) {
	i := strings.IndexByte(s[p:], '\n')
	if i < 0 {
		return "", p, headMore
	}
	line = s[p : p+i]
	if line == "" || line[len(line)-1] != '\r' {
		return "", p, headHandoff
	}
	return line[:len(line)-1], p + i + 1, headServe
}

// parseBodyLen reads a Content-Length the door serves: digits, at most
// link.MaxBody.
//
//loadctl:hotpath
func parseBodyLen(v string) (int64, bool) {
	if v == "" || len(v) > maxLenDigits {
		return 0, false
	}
	var n int64
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(v[i]-'0')
	}
	return n, n <= link.MaxBody
}

// parseConnection notes a close token in h; any token but close and
// keep-alive is not the door's.
//
//loadctl:hotpath
func parseConnection(v string, h *doorHead) bool {
	for v != "" {
		var tok string
		tok, v, _ = strings.Cut(v, ",")
		switch tok = trimOWS(tok); {
		case tok == "":
		case strings.EqualFold(tok, "close"):
			h.close = true
		case !strings.EqualFold(tok, "keep-alive"):
			return false
		}
	}
	return true
}

//loadctl:hotpath
func trimOWS(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for s != "" && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// isToken reports whether s is a non-empty RFC 9110 token.
//
//loadctl:hotpath
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			continue
		}
		if strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return true
}

// isFieldValue reports whether s holds only field-value bytes: visible
// ASCII, space, tab and obs-text.
//
//loadctl:hotpath
func isFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}

// isHost reports whether s is made of the characters a host and port
// take: letters, digits and .-:[]_ — a subset of what net/http accepts.
//
//loadctl:hotpath
func isHost(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			continue
		}
		if strings.IndexByte(".-:[]_", c) < 0 {
			return false
		}
	}
	return true
}
