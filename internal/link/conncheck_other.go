//go:build !unix

package link

import "syscall"

// Without a portable non-blocking peek an idle connection is assumed
// alive; a dead one then fails its request after the write and the proxy
// answers 502, as for any other post-dial failure.
func (c *conn) initProbe(syscall.RawConn) {}

func (c *conn) alive() bool { return true }
