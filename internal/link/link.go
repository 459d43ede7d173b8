// Package link is the proxy⇄backend wire: a persistent, length-framed
// connection that carries one routed /txn per round trip as one write and
// one read on each side, where net/http spends three goroutine hand-offs
// on the client and two on the server. The ledger (bench/) put that
// hand-off cost at over half of a proxied round trip, against a few
// microseconds of proxy logic and of transaction work — so the hop is the
// product's latency behind the proxy, and this package is the hop.
//
// The three pieces:
//
//   - the frame codec (this file): request and response layouts, bounded
//     decode, no allocation;
//   - Transport (client.go): an http.RoundTripper the proxy installs by
//     default. It negotiates the wire per backend with an HTTP/1.1 Upgrade
//     on GET /link, keeps a LIFO of idle connections per backend, and
//     falls back to an embedded http.Transport for backends that do not
//     speak it and for everything that is not POST /txn;
//   - Accept / ServerConn (server.go): the backend half. Accept hijacks
//     the upgrade request's connection; ServerConn.Serve reads a frame,
//     runs the handler inline and writes the answer from the connection's
//     own goroutine.
//
// One request is in flight per connection. The caller's goroutine writes
// the frame and reads the answer; nothing is handed to another goroutine
// on either end, which is where the measured time went. Multiplexing and
// pipelining are deliberately absent: the benchmark's C = min(nproc, 4)
// connections cannot show them (ROADMAP item 2).
//
// # Frames
//
// Every frame is a big-endian u32 payload length followed by the payload.
//
//	request  = u64 trace ID (0 = none) | u32 query length | raw query | body
//	response = u16 status | u64 trace echo (0 = none)
//	           | str load signal | str Retry-After | str Content-Type | body
//	str      = u16 length | bytes
//
// The query and the body are opaque: the proxy never learns the /txn
// grammar and a backend's 400 is byte-identical on both wires. A payload
// longer than MaxFrame, a frame that does not parse, or bytes arriving
// while a request is in flight close the connection.
//
// # At-most-once
//
// A transaction is not idempotent, so the proxy replays a request on
// another backend only when it provably never reached the first one
// (cluster.retriableForward: a *net.OpError with Op "dial"). Transport
// keeps that meaning: a refused dial and a failed upgrade handshake —
// only GET /link was ever sent — surface as dial errors; an idle pooled
// connection is probed for a pending EOF or RST before a byte is written
// and silently replaced when dead; any failure after the first byte of a
// frame went out is a plain error the proxy answers 502.
package link

import (
	"encoding/binary"
	"errors"
	"io"
	"unsafe"
)

const (
	// Proto is the Upgrade token both ends negotiate.
	Proto = "loadctl-link/1"
	// Path is the endpoint a backend serves the upgrade on.
	Path = "/link"

	// MaxBody is the largest request body a frame carries: the proxy's
	// default MaxBodyBytes. Transport sends anything larger over HTTP.
	MaxBody = 1 << 20
	// maxHead is the fixed allowance on top of MaxBody for the query and
	// the frame's own fields.
	maxHead = 64 << 10
	// MaxFrame caps a frame's payload on both ends.
	MaxFrame = MaxBody + maxHead

	// maxQuery is the longest raw query Transport frames; a longer one
	// takes the HTTP path rather than eat into the body's share.
	maxQuery = maxHead / 2

	reqFixed  = 8 + 4       // trace ID, query length
	respFixed = 2 + 8 + 3*2 // status, trace echo, three string lengths
	maxStr    = 1<<16 - 1   // longest str field
	initBuf   = 4 << 10     // a connection's starting buffer
	keepBuf   = 64 << 10    // larger buffers are dropped after use, not kept per idle connection
)

// Errors a frame can fail with. All of them end the connection.
var (
	ErrFrameTooLarge = errors.New("link: frame exceeds MaxFrame")
	ErrMalformed     = errors.New("link: malformed frame")
	// ErrPipelined means bytes arrived beyond the one frame a connection
	// may have in flight.
	ErrPipelined = errors.New("link: bytes beyond the frame in flight")
)

// Request is one decoded request frame. Query and Body alias the
// connection's read buffer: they are valid until the handler returns.
type Request struct {
	TraceID uint64
	Query   string
	Body    []byte

	conn *ServerConn // nil for a Request not read by ServerConn.Serve
}

// Response is one response frame. A handler encodes one with
// AppendResponse; on the client side the strings and Body alias the read
// buffer until the next frame.
type Response struct {
	Status      int
	TraceID     uint64 // echoed for head-sampled requests, else 0
	Signal      string // X-Loadctl-Load
	RetryAfter  string
	ContentType string
	Body        []byte
}

// view returns b as a string without copying. The result is only valid
// while b's backing array is unchanged — callers document that window.
//
//loadctl:hotpath
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// appendRequestHead appends a request frame up to and excluding the body,
// with the length prefix already counting bodyLen bytes to follow.
//
//loadctl:hotpath
func appendRequestHead(dst []byte, traceID uint64, query string, bodyLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(reqFixed+len(query)+bodyLen))
	dst = binary.BigEndian.AppendUint64(dst, traceID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(query)))
	return append(dst, query...)
}

// AppendRequest appends req as one frame, length prefix included. The
// caller keeps the payload within MaxFrame.
//
//loadctl:hotpath
func AppendRequest(dst []byte, req *Request) []byte {
	dst = appendRequestHead(dst, req.TraceID, req.Query, len(req.Body))
	return append(dst, req.Body...)
}

// ParseRequest decodes a request payload (the frame minus its length
// prefix) into req, aliasing payload.
//
//loadctl:hotpath
func ParseRequest(payload []byte, req *Request) error {
	if len(payload) < reqFixed {
		return ErrMalformed
	}
	qlen := binary.BigEndian.Uint32(payload[8:])
	if uint64(qlen) > uint64(len(payload)-reqFixed) {
		return ErrMalformed
	}
	req.TraceID = binary.BigEndian.Uint64(payload)
	req.Query = view(payload[reqFixed : reqFixed+int(qlen)])
	req.Body = payload[reqFixed+int(qlen):]
	return nil
}

//loadctl:hotpath
func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// cutStr splits one str field off the front of b.
//
//loadctl:hotpath
func cutStr(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > len(b)-2 {
		return "", nil, false
	}
	return view(b[2 : 2+n]), b[2+n:], true
}

// AppendResponse appends resp as one frame, length prefix included. The
// three header strings must each fit a u16 length (ErrMalformed if not).
//
//loadctl:hotpath
func AppendResponse(dst []byte, resp *Response) ([]byte, error) {
	if len(resp.Signal) > maxStr || len(resp.RetryAfter) > maxStr || len(resp.ContentType) > maxStr {
		return dst, ErrMalformed
	}
	n := respFixed + len(resp.Signal) + len(resp.RetryAfter) + len(resp.ContentType) + len(resp.Body)
	if n > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint16(dst, uint16(resp.Status))
	dst = binary.BigEndian.AppendUint64(dst, resp.TraceID)
	dst = appendStr(dst, resp.Signal)
	dst = appendStr(dst, resp.RetryAfter)
	dst = appendStr(dst, resp.ContentType)
	return append(dst, resp.Body...), nil
}

// ParseResponse decodes a response payload into resp, aliasing payload.
//
//loadctl:hotpath
func ParseResponse(payload []byte, resp *Response) error {
	if len(payload) < respFixed {
		return ErrMalformed
	}
	resp.Status = int(binary.BigEndian.Uint16(payload))
	resp.TraceID = binary.BigEndian.Uint64(payload[2:])
	rest := payload[10:]
	var ok bool
	if resp.Signal, rest, ok = cutStr(rest); !ok {
		return ErrMalformed
	}
	if resp.RetryAfter, rest, ok = cutStr(rest); !ok {
		return ErrMalformed
	}
	if resp.ContentType, rest, ok = cutStr(rest); !ok {
		return ErrMalformed
	}
	resp.Body = rest
	return nil
}

// readFrame reads exactly one frame from r into buf, growing it to fit
// but never past MaxFrame, and returns the payload and the buffer to keep.
// The first read asks for everything buffered, so a frame that arrived
// whole costs one read; more bytes than the frame holds are a protocol
// violation, since the peer may not have a second request in flight.
// io.EOF is returned untouched only when the peer closed between frames.
//
//loadctl:hotpath
func readFrame(r io.Reader, buf []byte) (payload, keep []byte, err error) {
	if cap(buf) < initBuf {
		buf = make([]byte, initBuf) //loadctl:allocok audited: a connection's first frame, or the first after an oversized buffer was dropped
	}
	buf = buf[:cap(buf)]
	n, err := io.ReadAtLeast(r, buf, 4)
	if err != nil {
		return nil, buf, err
	}
	size := int(binary.BigEndian.Uint32(buf))
	if size > MaxFrame {
		return nil, buf, ErrFrameTooLarge
	}
	total := 4 + size
	if n > total {
		return nil, buf, ErrPipelined
	}
	if total > len(buf) {
		grown := make([]byte, total) //loadctl:allocok audited: a frame beyond the connection's buffer — bodies over 4 KiB only, bounded by MaxFrame
		copy(grown, buf[:n])
		buf = grown
	}
	if n < total {
		if _, err := io.ReadFull(r, buf[n:total]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, buf, err
		}
	}
	return buf[4:total], buf, nil
}

// trim drops a buffer a large frame grew, so an idle connection does not
// pin its largest body.
//
//loadctl:hotpath
func trim(buf []byte) []byte {
	if cap(buf) > keepBuf {
		return nil
	}
	return buf
}
