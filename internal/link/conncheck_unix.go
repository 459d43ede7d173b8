//go:build unix

package link

import (
	"io"
	"syscall"
)

// initProbe prepares the liveness probe: a non-blocking one-byte read on
// the raw descriptor (the go-sql-driver connCheck pattern). The callback
// is bound once so that probing an idle connection allocates nothing.
func (c *conn) initProbe(raw syscall.RawConn) {
	c.raw = raw
	c.probe = func(fd uintptr) bool {
		n, err := syscall.Read(int(fd), c.probeBuf[:])
		switch {
		case n == 0 && err == nil:
			c.probeErr = io.EOF // the backend closed its end
		case n > 0:
			c.probeErr = errExtra // data nobody asked for
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK:
			c.probeErr = nil // open and quiet: the healthy case
		default:
			c.probeErr = err // ECONNRESET and friends
		}
		return true
	}
}

// alive reports whether an idle connection can still carry a request. It
// runs before any byte of the request is written, so a connection the
// backend dropped while it sat in the pool is replaced silently instead
// of failing a transaction that can no longer be replayed.
//
//loadctl:hotpath
func (c *conn) alive() bool {
	if c.raw == nil {
		return true
	}
	if err := c.raw.Read(c.probe); err != nil {
		return false
	}
	return c.probeErr == nil
}
