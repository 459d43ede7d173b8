// Package link is the hand-served HTTP/1.1 wire of POST /txn, both
// ends of it, on the request's own goroutine:
//
//   - Door, the front door both tiers serve through: loadctld
//     (internal/server) and loadctlproxy (internal/cluster) each supply
//     only a Handler, and the door owns the accept loop, the head parser,
//     the handoff of everything else to net/http, the close-watcher, the
//     answer writer and the drain;
//   - Transport, the proxy⇄backend hop: Do writes each routed POST /txn as
//     one plain HTTP/1.1 keep-alive request and reads back one answer
//     delimited by Content-Length, with no *http.Request or
//     *http.Response; RoundTrip is an embedded http.Transport, for health
//     probes and every request the hop does not take.
//
// net/http spends goroutine hand-offs on every request on either side;
// the ledger (bench/) put that cost at over half of a proxied round trip,
// against a few microseconds of proxy logic and of transaction work.
//
// The hop's far end is a backend's door. The two share one budget,
// HeadBudget: the door reads request heads into a buffer of that size,
// and Transport sends raw only what fits it, so every request it writes
// is one the door serves rather than hands to net/http.
//
// One request is in flight per connection. The caller's goroutine writes
// the request and reads the answer; nothing is handed to another
// goroutine on either end, which is where the measured time went. A
// proxy's door relay learns of its client's hang-up only when the answer
// is slow: past hangupGrace, Do arms the door's close-watcher.
// Pipelining is deliberately absent on the hop: the benchmark's
// C = min(nproc, 4) connections cannot show it (ROADMAP item 2).
//
// # At-most-once
//
// A transaction is not idempotent, so the proxy replays a request on
// another backend only when it provably never reached the first one
// (cluster.retriableForward: a *net.OpError with Op "dial"). Transport
// keeps that meaning: a refused dial surfaces as the dial error it is; an
// idle pooled connection is probed for a pending EOF or RST before a byte
// is written and silently replaced when dead; any failure after the
// request went out — a broken connection, an answer the parser is unsure
// of, bytes beyond the answer — is a plain error the proxy answers 502.
package link

import "unsafe"

const (
	// HeadBudget is the hop's head budget: the size of the buffer the
	// front door reads a request head into (a longer head goes to
	// net/http), and the longest head Transport.Do writes (Fits; the proxy
	// sends a longer one through RoundTrip). An answer head longer than it
	// fails the exchange.
	HeadBudget = 4 << 10

	// MaxBody is the largest request body the hop carries: the proxy's
	// default MaxBodyBytes, and the largest Content-Length the door serves.
	// The proxy sends a larger request through Transport.RoundTrip.
	MaxBody = 1 << 20

	// MaxAnswer is the largest answer body Transport reads: MaxBody plus
	// headroom, because an answer may quote part of its request (a 400
	// names the bad value). An answer over it fails the exchange.
	MaxAnswer = MaxBody + 64<<10

	keepBuf = 64 << 10 // larger buffers are dropped after use, not kept per idle connection
)

// view returns b as a string without copying. The result is only valid
// while b's backing array is unchanged — callers document that window.
//
//loadctl:hotpath
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// trim drops a buffer a large body grew, so an idle connection does not
// pin its largest body.
//
//loadctl:hotpath
func trim(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf
}
