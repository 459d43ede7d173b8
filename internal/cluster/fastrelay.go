// Relay fast-path plumbing: the pooled per-request scratch and the
// allocation-free helpers behind the proxy's /txn data path (relay and
// forward in cluster.go).
//
// Everything one relay pass works in is pooled and reused: the routable
// set, the policy's scoring slate, the request body, the text of a shed
// answer, and a copy of the backend's answer until it is written, so the
// hop connection goes back to its pool first. On the hop
// (link.Transport.Do) nothing escapes: the request is copied into the
// connection's own buffer and written on the caller's goroutine. Only
// forward's HTTP path (roundTrip) allocates the outbound request afresh —
// URL copy, header map, body reader, body copy — because a net/http
// transport writes the request from its own goroutine, and on a backend
// that answers before consuming the whole request, RoundTrip can return
// while that goroutine is still reading the request's memory. Reusing it
// would be a data race with a remote trigger.
package cluster

import (
	"context"
	"io"
	"strings"
	"sync"

	"github.com/tpctl/loadctl/internal/link"
)

// relayScratch is the pooled working state of one relay pass.
type relayScratch struct {
	routable []int
	cands    []Candidate
	body     []byte     // the request body, kept for a failover
	msg      []byte     // a shed answer's text
	reply    link.Reply // the backend's answer, read whole by forward
	answer   []byte     // its body

	// hangCtx is the context of a door relay's HTTP path (roundTrip),
	// which the door's close-watcher ends by hangup; nil until one runs.
	hangCtx context.Context
	hangup  context.CancelFunc
}

// keepBuf is the largest body buffer a scratch keeps: a larger one is
// dropped once used, so the pool does not pin the largest body seen.
const keepBuf = 64 << 10

var relayScratchPool sync.Pool

//loadctl:hotpath
func getRelayScratch() *relayScratch {
	sc, ok := relayScratchPool.Get().(*relayScratch)
	if !ok {
		sc = &relayScratch{} //loadctl:allocok audited: pool miss — cold start only, the steady state reuses released scratches
	}
	return sc
}

// putRelayScratch returns sc to the pool once its answer is written.
//
//loadctl:hotpath
func putRelayScratch(sc *relayScratch) {
	if cap(sc.body) > keepBuf {
		sc.body = nil
	}
	if cap(sc.answer) > keepBuf {
		sc.answer = nil
	}
	sc.reply = link.Reply{}
	if sc.hangup != nil {
		sc.hangup()
		sc.hangCtx, sc.hangup = nil, nil
	}
	relayScratchPool.Put(sc)
}

// readAll appends what r holds to dst, up to limit bytes: a body longer
// than limit reads as limit bytes, which the caller refuses. It is
// io.ReadAll into a reused buffer.
//
//loadctl:hotpath
func readAll(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for len(dst) < limit {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)] //loadctl:allocok audited: grows the pooled buffer to the largest body in the pool's life; putRelayScratch drops one over 64 KiB
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), limit)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// queryClassFast extracts the first "class" query parameter from a raw
// query string without allocating, agreeing with url.Values.Get on the
// plain subset (no %-escapes, '+' or ';' anywhere in the string);
// ok=false means the query uses escapes and the caller must fall back to
// full url.Values parsing.
//
//loadctl:hotpath
func queryClassFast(raw string) (class string, ok bool) {
	for i := 0; i < len(raw); i++ {
		if c := raw[i]; c == '%' || c == '+' || c == ';' {
			return "", false
		}
	}
	for len(raw) > 0 {
		pair := raw
		if j := strings.IndexByte(raw, '&'); j >= 0 {
			pair, raw = raw[:j], raw[j+1:]
		} else {
			raw = ""
		}
		key, val := pair, ""
		if j := strings.IndexByte(pair, '='); j >= 0 {
			key, val = pair[:j], pair[j+1:]
		}
		if key == "class" {
			return val, true
		}
	}
	return "", true
}
