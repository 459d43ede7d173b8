package link

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
	"sync"
	"sync/atomic"
	"time"

	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
)

// The front door: POST /txn served over HTTP/1.1 keep-alive by hand, at
// the listener the binary owns, with every other request handed to an
// unchanged net/http server. Both tiers serve through it — loadctld
// (internal/server) and loadctlproxy (internal/cluster) — and each
// supplies only its Handler: serve this parsed head on this connection.
// A proxy's hop (Transport) writes only heads the door serves.
//
// Each connection gets one goroutine, which peeks each request head in the
// connection's bufio.Reader of HeadBudget bytes. A head the door is sure
// of is served here: the handler, then the answer in one Write from the
// connection's own buffer. Anything else is decided before a byte is
// consumed and handed to http.Server through the listener Listen
// returns, the peeked bytes replayed; the connection then stays on
// net/http.

// aLongTimeAgo is a read deadline that has always passed: setting it fails
// a blocked Read at once without closing the connection.
var aLongTimeAgo = time.Unix(1, 0)

// Handler serves the request head c holds. It answers with c.Answer, or
// returns without answering when there is nobody to answer (the client
// hung up), which ends the connection.
type Handler func(c *Conn)

// Door is one tier's front door: the handler, the connections it holds
// and their drain. net/http never sees these connections, so
// http.Server's Close and Shutdown neither see nor end them: CloseConns
// and Drain do.
type Door struct {
	name  string // the tier, for logs
	serve Handler
	start time.Time // the Date clock's origin

	mu       sync.Mutex
	conns    map[*Conn]struct{}
	draining atomic.Bool   // every connection closes after its current answer
	drained  chan struct{} // closed when the last connection has gone during a Drain
}

// NewDoor returns a door that serves each request head with serve; name
// prefixes its log lines.
func NewDoor(name string, serve Handler) *Door {
	return &Door{name: name, serve: serve, start: time.Now(), conns: make(map[*Conn]struct{})}
}

// Listen serves POST /txn on the connections ln accepts and returns the
// listener of everything else, for http.Server:
//
//	hs.Serve(d.Listen(ln))
//
// Closing the returned listener (http.Server.Shutdown does) closes ln and
// returns once the door accepts no more.
func (d *Door) Listen(ln net.Listener) net.Listener {
	l := &doorListener{Listener: ln, conns: make(chan net.Conn), done: make(chan struct{})}
	go l.acceptLoop(d)
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
func (l *doorListener) acceptLoop(d *Door) {
	defer close(l.done)
	var delay time.Duration
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("%s: accept error: %v; retrying in %v", d.name, err, delay)
				time.Sleep(delay)
				continue
			}
			l.err = err
			return
		}
		delay = 0
		go d.serveConn(l, nc)
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

// Conn is one front-door connection, as a Handler sees it: the request
// head being served, its body, the close-watcher and the answer.
type Conn struct {
	door  *Door
	nc    net.Conn
	br    *bufio.Reader // reads through connReader
	head  Head          // the request being served
	query []byte        // the head's query, copied out of br
	body  body          // its body
	out   []byte        // the answer, written in one Write
	keep  bool          // the answer went out and the connection stays
	// idle is set while the connection waits for a request's first byte,
	// the only state in which interrupt cuts a read.
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

// serveConn runs one connection: the door serves its requests until one
// is not the door's, which hands the connection to net/http, or the
// connection ends. A panicking request is recovered, logged and ends its
// connection, not the process — what net/http does for its handlers.
func (d *Door) serveConn(l *doorListener, nc net.Conn) {
	c := &Conn{door: d, nc: nc, dateSec: -1}
	c.br = bufio.NewReaderSize((*connReader)(c), HeadBudget)
	d.hold(c)
	handoff := false
	defer func() {
		if p := recover(); p != nil {
			log.Printf("%s: panic serving %v: %v\n%s", d.name, nc.RemoteAddr(), p, debug.Stack())
			handoff = false
		}
		// A connection leaves the registry closed or handed off, so a
		// drain that saw it go has no socket left open behind it.
		if !handoff {
			nc.Close()
		}
		d.drop(c)
		if handoff {
			l.handoff(&replayConn{Conn: nc, door: c})
		}
	}()
	handoff = c.serve()
}

// serve answers requests until the connection ends (false) or a request is
// not the door's (true: hand the connection to net/http, nothing of that
// request consumed).
//
//loadctl:hotpath
func (c *Conn) serve() (handoff bool) {
	for {
		if c.br.Buffered() == 0 && !c.stashed {
			// Idle between requests: a drain ends the connection here.
			c.idle.Store(true)
			if c.door.draining.Load() {
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
		// The head is buffered, so Discard cannot fail.
		_, _ = c.br.Discard(c.head.n)
		c.body = body{r: c.br, n: c.head.BodyLen}
		c.keep = false
		c.door.serve(c)
		c.endWatch()
		if !c.keep {
			return false
		}
	}
}

// readHead peeks until the buffered bytes hold a complete head the door
// serves (parsed into c.head, its query copied out of the reader) or are
// known not to. headMore means the connection failed first.
//
//loadctl:hotpath
func (c *Conn) readHead() headVerdict {
	for {
		b, _ := c.br.Peek(c.br.Buffered())
		if v := parseHead(b, &c.head); v != headMore {
			if v == headServe {
				c.query = append(c.query[:0], c.head.Query...)
				c.head.Query = view(c.query)
			}
			return v
		}
		if len(b) == HeadBudget {
			return headHandoff // a head larger than the reader
		}
		if _, err := c.br.Peek(len(b) + 1); err != nil {
			return headMore
		}
	}
}

// Head is the request head being served. Query is valid until the
// handler returns.
//
//loadctl:hotpath
func (c *Conn) Head() *Head { return &c.head }

// Body returns the request body, nil when it has none. What the handler
// leaves unread is discarded before the answer.
//
//loadctl:hotpath
func (c *Conn) Body() io.Reader {
	if c.head.BodyLen == 0 {
		return nil
	}
	return &c.body
}

// body is a request body of a declared length. A connection that ends
// before its last byte fails the read with io.ErrUnexpectedEOF, as
// net/http's body reader does, so a cut-off body is never taken whole.
type body struct {
	r *bufio.Reader
	n int64 // bytes left
}

//loadctl:hotpath
func (b *body) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= int64(n)
	if err == io.EOF && b.n > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// Answer is one /txn answer, whichever tier gives it. The door renders it
// by hand (Conn.Answer) and net/http through WriteHTTP, with the same
// header set: Content-Type, X-Content-Type-Options on text,
// X-Loadctl-Load, Retry-After, X-Loadctl-Backend and X-Loadctl-Trace when
// set, then Date and Content-Length (Connection: close on the door).
type Answer struct {
	// Status is the HTTP status code; 0 means there is nobody to answer.
	Status      int
	ContentType string
	// Signal, RetryAfter and Backend are the X-Loadctl-Load, Retry-After
	// and X-Loadctl-Backend values; "" leaves the header out.
	Signal     string
	RetryAfter string
	Backend    string
	// Trace is the trace ID to echo, 0 for none.
	Trace uint64
	Body  []byte
	// Close ends the door's connection after this answer.
	Close bool
}

// ContentText is the Content-Type of a plain-text answer, as http.Error
// sets it; such an answer also carries X-Content-Type-Options: nosniff.
const ContentText = "text/plain; charset=utf-8"

// BackendHeader names the header of the backend a proxy routed the
// request to.
const BackendHeader = "X-Loadctl-Backend"

// Answer writes a as the answer to the request being served. It ends an
// armed close-watcher first and discards what the handler left of the
// body — at most MaxBody, and also when the connection closes after the
// answer: a socket closed with unread bytes is reset, and a reset can
// cost the client the answer. The connection stays open unless the
// request or a said close, a drain is under way, or the write failed.
//
//loadctl:hotpath
func (c *Conn) Answer(a *Answer) {
	c.endWatch()
	keep := !c.head.Close && !a.Close && !c.door.draining.Load()
	if c.body.n > 0 {
		if _, err := c.br.Discard(int(c.body.n)); err != nil {
			keep = false
		}
		c.body.n = 0
	}
	c.out = c.appendAnswer(c.out[:0], a, keep)
	_, err := c.nc.Write(c.out)
	c.out = trim(c.out)
	c.keep = keep && err == nil
}

// appendAnswer renders a as an HTTP/1.1 answer.
//
//loadctl:hotpath
func (c *Conn) appendAnswer(b []byte, a *Answer, keep bool) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(a.Status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(a.Status)...)
	b = appendHeader(b, "Content-Type", a.ContentType)
	if a.ContentType == ContentText {
		b = appendHeader(b, "X-Content-Type-Options", "nosniff") // as http.Error does
	}
	if a.Signal != "" {
		b = appendHeader(b, loadsig.Header, a.Signal)
	}
	if a.RetryAfter != "" {
		b = appendHeader(b, "Retry-After", a.RetryAfter)
	}
	if a.Backend != "" {
		b = appendHeader(b, BackendHeader, a.Backend)
	}
	if a.Trace != 0 {
		b = append(b, "\r\n"+reqtrace.Header+": "...)
		b = reqtrace.AppendID(b, a.Trace)
	}
	if !keep {
		b = appendHeader(b, "Connection", "close")
	}
	b = append(b, "\r\nDate: "...)
	b = append(b, c.httpDate()...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(a.Body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, a.Body...)
}

//loadctl:hotpath
func appendHeader(b []byte, name, value string) []byte {
	b = append(b, "\r\n"...)
	b = append(b, name...)
	b = append(b, ": "...)
	return append(b, value...)
}

// chunkAfter is the answer length past which WriteHTTP sets
// Content-Length itself. net/http adds one only to a body it holds whole
// when the handler returns (2 KiB) and chunks a longer one, but a proxy's
// hop reads only answers delimited by Content-Length.
const chunkAfter = 1 << 10

// WriteHTTP writes a through net/http: the header set the door writes,
// Date and Content-Length left to net/http below chunkAfter.
//
//loadctl:hotpath
func (a *Answer) WriteHTTP(w http.ResponseWriter) {
	h := w.Header()
	setValue(h, "Content-Type", a.ContentType)
	if a.ContentType == ContentText {
		setValue(h, "X-Content-Type-Options", "nosniff")
	}
	if a.Signal != "" {
		setValue(h, loadsig.Header, a.Signal)
	}
	if a.RetryAfter != "" {
		setValue(h, "Retry-After", a.RetryAfter)
	}
	if a.Backend != "" {
		setValue(h, BackendHeader, a.Backend)
	}
	if a.Trace != 0 {
		setValue(h, reqtrace.Header, reqtrace.FormatID(a.Trace)) //loadctl:allocok audited: header echo for head-sampled traces only
	}
	if len(a.Body) > chunkAfter {
		setValue(h, "Content-Length", strconv.Itoa(len(a.Body))) //loadctl:allocok audited: answers over 1 KiB only — rejections quoting their request, or a long class list
	}
	w.WriteHeader(a.Status)
	_, _ = w.Write(a.Body)
}

// setValue is http.Header.Set without the per-call []string allocation
// when the key is already present, as on a header map a benchmark or
// recorder reuses. Keys must be in canonical form already.
//
//loadctl:hotpath
func setValue(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value} //loadctl:allocok audited: first Set of this key on the response — one slice per header per response, the map entry then reused
}

// now is the hot path's clock: the door's start plus the monotonic time
// since.
//
//loadctl:hotpath
func (d *Door) now() time.Time { return d.start.Add(time.Since(d.start)) }

// httpDate returns the Date header value, rendered at most once a second.
//
//loadctl:hotpath
func (c *Conn) httpDate() []byte {
	now := c.door.now()
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// connReader is the head reader's source: a stashed byte first, then the
// socket.
type connReader Conn

func (r *connReader) Read(p []byte) (int, error) {
	c := (*Conn)(r)
	if c.stashed && len(p) > 0 {
		p[0] = c.stash[0]
		c.stashed = false
		return 1, nil
	}
	return c.nc.Read(p)
}

// interrupt ends the connection if it is idle; a busy one answers with
// Connection: close and ends after its answer.
func (c *Conn) interrupt() {
	if c.idle.Load() {
		_ = c.nc.SetReadDeadline(aLongTimeAgo)
	}
}

// WatchClose arms a close-watcher around a wait that may be long: it
// calls cancel if the client closes the connection meanwhile. A byte that
// arrives instead is kept, as the start of a pipelined request, and ends
// the watch without a hang-up; net/http's background read does the same.
//
// The watch ends when the answer is written or the handler returns,
// whichever is first, not when the wait does: ending it inside the wait's
// outcome — an admission slot, say — would put two goroutine switches
// (wake the watcher, wait for it) on the critical path, and how long they
// take depends on which core the scheduler finds free. A cancel after
// the wait is harmless to a caller that is done with it by then.
func (c *Conn) WatchClose(cancel func()) {
	if c.stashed || c.watched != nil {
		return // the stash is full: the client is still talking
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
}

// endWatch ends an armed close-watcher and waits for it to be gone, so
// that the connection's goroutine reads the socket (and the stash) alone
// again, and the watcher's cancel can no longer run.
//
//loadctl:hotpath
func (c *Conn) endWatch() {
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
// straight from the socket, with no extra copy.
type replayConn struct {
	net.Conn
	door *Conn // nil once its bytes are replayed
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

// hold registers c; one that arrives while a drain is under way is
// interrupted at once.
func (d *Door) hold(c *Conn) {
	d.mu.Lock()
	d.conns[c] = struct{}{}
	if d.draining.Load() {
		c.interrupt()
	}
	d.mu.Unlock()
}

// drop unregisters c and ends a drain waiting for the last one.
func (d *Door) drop(c *Conn) {
	d.mu.Lock()
	delete(d.conns, c)
	if len(d.conns) == 0 && d.drained != nil {
		close(d.drained)
		d.drained = nil
	}
	d.mu.Unlock()
}

// Conns returns the number of open front-door connections.
func (d *Door) Conns() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// CloseConns severs every open front-door connection, as a crash would:
// a request in flight still runs but loses its answer. New connections
// are still accepted afterwards.
func (d *Door) CloseConns() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for c := range d.conns {
		_ = c.nc.Close()
	}
}

// Drain is the half of a graceful shutdown http.Server.Shutdown cannot
// do, to run after it: it ends the front-door connections net/http does
// not track. Idle ones close at once, one with a request in flight closes
// after its answer (Connection: close), and one accepted meanwhile closes
// before its first request. It returns nil once all are gone; when ctx
// ends first it severs the rest and returns ctx's error.
func (d *Door) Drain(ctx context.Context) error {
	d.draining.Store(true)
	d.mu.Lock()
	if len(d.conns) == 0 {
		d.mu.Unlock()
		return nil
	}
	if d.drained == nil {
		d.drained = make(chan struct{}) // shared by concurrent drains
	}
	drained := d.drained
	for c := range d.conns {
		c.interrupt()
	}
	d.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		d.CloseConns()
		return ctx.Err()
	}
}

// Head is what the door takes from a request head it serves.
type Head struct {
	n       int    // head length, the blank line included
	Query   string // the raw query
	BodyLen int64  // Content-Length; 0 without one
	Close   bool   // Connection: close
	TraceID uint64 // X-Loadctl-Trace; 0 if absent or malformed
}

// headVerdict is parseHead's answer.
type headVerdict uint8

const (
	headMore    headVerdict = iota // so far a head the door serves: read on
	headServe                      // a complete head the door serves
	headHandoff                    // not the door's: net/http's
)

const (
	doorTarget = "POST /txn"
	doorProto  = " HTTP/1.1"
)

// parseHead classifies b, the buffered bytes from the start of a request
// head. The door serves only what it is sure net/http reads the same way
// (FuzzFrontDoorHead holds it to http.ReadRequest): every line ends in
// CRLF; the request line is exactly POST /txn[?query] HTTP/1.1 with a
// target of visible ASCII; header names are tokens and values field
// bytes, none folded; there is exactly one Host, of host characters, and
// at most one Content-Length, all digits and at most MaxBody; Connection
// names only close and keep-alive; and there is no Transfer-Encoding,
// Expect or Upgrade. A prefix of such a head is headMore. h.Query aliases
// b.
//
//loadctl:hotpath
func parseHead(b []byte, h *Head) headVerdict {
	*h = Head{}
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
		h.Query = target[1:]
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
			n, ok := parseLength(value, MaxBody)
			if !ok {
				return headHandoff
			}
			h.BodyLen = int64(n)
		case strings.EqualFold(name, "Connection"):
			if !parseConnection(value, h) {
				return headHandoff
			}
		case strings.EqualFold(name, reqtrace.Header):
			if !traced { // the first one counts, as with Header.Get
				traced = true
				h.TraceID, _ = reqtrace.ParseID(value)
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

// parseConnection notes a close token in h; any token but close and
// keep-alive is not the door's.
//
//loadctl:hotpath
func parseConnection(v string, h *Head) bool {
	for v != "" {
		var tok string
		tok, v, _ = strings.Cut(v, ",")
		switch tok = trimOWS(tok); {
		case tok == "":
		case strings.EqualFold(tok, "close"):
			h.Close = true
		case !strings.EqualFold(tok, "keep-alive"):
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
