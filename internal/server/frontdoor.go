package server

import (
	"context"
	"net"

	"github.com/tpctl/loadctl/internal/link"
)

// The server's front door is internal/link's Door, with serveDoor as its
// handler: the second thin adapter of runTxn, beside handleTxn
// (net/http), and the far end of the proxy's hop.

// FrontDoor serves POST /txn on the connections ln accepts and returns the
// listener of everything else, for http.Server:
//
//	hs.Serve(s.FrontDoor(ln))
//
// Closing the returned listener (http.Server.Shutdown does) closes ln and
// returns once the door accepts no more. The door's own connections are
// not net/http's: DrainConns and CloseConns end them.
func (s *Server) FrontDoor(ln net.Listener) net.Listener { return s.door.Listen(ln) }

// serveDoor is the door's adapter of runTxn: it moves bytes between the
// door's connection and the transaction path and holds no logic of its
// own.
//
//loadctl:hotpath
func (s *Server) serveDoor(c *link.Conn) {
	h := c.Head()
	sc := getTxnScratch()
	// The context never ends: an admitted transaction runs to completion,
	// and a queued one learns of a hang-up through the close-watcher.
	res := s.runTxn(context.Background(), sc, h.Query, c.Body(), h.TraceID, c)
	if res.Status != 0 {
		res.Close = s.draining.Load()
		c.Answer(&res)
	}
	putTxnScratch(sc) // after the answer is written: res.Body aliases sc.buf
}

// DoorConns returns the number of open front-door keep-alive connections.
func (s *Server) DoorConns() int { return s.door.Conns() }

// CloseConns severs every open front-door connection, as a crash would:
// a transaction in flight still runs but loses its answer. New
// connections are still accepted afterwards.
func (s *Server) CloseConns() { s.door.CloseConns() }

// DrainConns is the half of a graceful shutdown http.Server.Shutdown
// cannot do, to run after it: it ends the front-door connections net/http
// does not track. Idle ones close at once, one with a transaction in
// flight closes after its answer is written, and one accepted meanwhile
// closes before its first request. It returns nil once all are gone;
// when ctx ends first it severs the rest and returns ctx's error.
func (s *Server) DrainConns(ctx context.Context) error { return s.door.Drain(ctx) }
