package link

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"
)

// Handler answers the requests of link connections.
type Handler interface {
	// ServeLink answers req on the connection's own goroutine: it appends
	// one response frame (AppendResponse) to frame, the connection's empty
	// write buffer, and reports whether the connection should stay open
	// afterwards. Appending straight into the write buffer lets a handler
	// render its body in scratch it releases before returning. Returning
	// frame empty means no answer is owed — the caller went away — and
	// ends the connection without one.
	ServeLink(req *Request, frame []byte) (answer []byte, keep bool)
}

// aLongTimeAgo is a read deadline that has always passed: setting it
// fails a blocked Read at once without closing the connection.
var aLongTimeAgo = time.Unix(1, 0)

// Accept upgrades the GET /link request r to a link connection: it checks
// the Upgrade headers, takes the socket over with http.Hijacker and
// answers 101. Every embedder of an http.Handler therefore speaks the
// link with no listener of its own. On a request that is not a well-formed
// upgrade Accept writes the HTTP error itself and returns it.
func Accept(w http.ResponseWriter, r *http.Request) (*ServerConn, error) {
	if r.Method != http.MethodGet ||
		!strings.Contains(strings.ToLower(r.Header.Get("Connection")), "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), Proto) {
		w.Header().Set("Upgrade", Proto)
		http.Error(w, "this endpoint only upgrades to "+Proto, http.StatusUpgradeRequired)
		return nil, errors.New("link: not an upgrade request")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be upgraded", http.StatusInternalServerError)
		return nil, errors.New("link: response writer is not an http.Hijacker")
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "connection cannot be upgraded", http.StatusInternalServerError)
		return nil, fmt.Errorf("link: hijack: %w", err)
	}
	if brw.Reader.Buffered() > 0 {
		// A frame sent before the 101 was read: the peer is not ours.
		nc.Close()
		return nil, ErrPipelined
	}
	// The HTTP server's read/write timeouts do not apply to the link.
	_ = nc.SetDeadline(time.Time{})
	const switching = "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + Proto + "\r\n\r\n"
	if _, err := io.WriteString(nc, switching); err != nil {
		nc.Close()
		return nil, fmt.Errorf("link: answer upgrade: %w", err)
	}
	return &ServerConn{nc: nc}, nil
}

// ServerConn is the backend end of one link connection.
type ServerConn struct {
	nc         net.Conn
	rbuf, wbuf []byte
	req        Request
	// pipelined is set by a close-watcher that read data instead of a
	// close; the stream is then out of step and the connection ends.
	pipelined bool
}

// Serve answers frames until the peer closes, a frame is bad, the handler
// asks to stop, or the connection is interrupted or closed; it closes the
// connection before returning. A clean end — peer closed between frames,
// handler stop, Interrupt — returns nil.
//
//loadctl:hotpath
func (c *ServerConn) Serve(h Handler) error {
	defer c.nc.Close()
	for {
		payload, buf, err := readFrame(c.nc, c.rbuf)
		c.rbuf = buf
		if err != nil {
			if err == io.EOF || errors.Is(err, os.ErrDeadlineExceeded) {
				return nil
			}
			return err
		}
		if err := ParseRequest(payload, &c.req); err != nil {
			return err
		}
		c.req.conn = c
		var keep bool
		c.wbuf, keep = h.ServeLink(&c.req, c.wbuf[:0])
		if c.pipelined {
			return ErrPipelined
		}
		if len(c.wbuf) == 0 {
			return nil
		}
		if _, err := c.nc.Write(c.wbuf); err != nil {
			return fmt.Errorf("link: write answer: %w", err) //loadctl:allocok audited: the connection is over — the peer went away before its answer
		}
		if !keep {
			return nil
		}
		c.rbuf, c.wbuf = trim(c.rbuf), trim(c.wbuf)
	}
}

// Interrupt ends Serve at the next frame boundary: an idle connection
// stops now, one with a transaction in flight after its answer is written
// (the handler must also start answering keep=false, since a close-watcher
// re-arms the deadline). The drain half of a graceful shutdown.
func (c *ServerConn) Interrupt() { _ = c.nc.SetReadDeadline(aLongTimeAgo) }

// Close severs the connection; Serve returns and a transaction in flight
// loses its answer.
func (c *ServerConn) Close() error { return c.nc.Close() }

// WatchClose calls cancel if the peer closes the connection while the
// request is being handled — the only way a waiting handler learns that
// the proxy gave up, since nobody reads the socket between a request and
// its answer. The handler must call stop before it returns; stop waits for
// the watcher to be gone. It costs a goroutine, so handlers arm it only
// where they are about to block (a contended admission queue), never on
// the path that answers at once.
func (r *Request) WatchClose(cancel context.CancelFunc) (stop func()) {
	c := r.conn
	if c == nil {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var one [1]byte
		n, err := c.nc.Read(one[:])
		switch {
		case n > 0:
			c.pipelined = true
			cancel()
		case errors.Is(err, os.ErrDeadlineExceeded):
			// stop, or an Interrupt that was already pending.
		default:
			cancel()
		}
	}()
	return func() {
		_ = c.nc.SetReadDeadline(aLongTimeAgo)
		<-done
		_ = c.nc.SetReadDeadline(time.Time{})
	}
}
