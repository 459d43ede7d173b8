package server

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"unsafe"

	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// The /txn fast path: pooled per-request scratch state, the zero-alloc
// query parser, and manual JSON response rendering into a pooled buffer.
// Everything here exists to keep the steady-state request cycle free of
// per-request heap traffic; runTxn (transport.go) is the consumer.

// txnScratch is the pooled per-request state of one /txn invocation:
// the decoded request, the sampled access set (reused slice capacity),
// the request's private RNG (by value — deriving it is arithmetic, not
// allocation) and the response render buffer.
type txnScratch struct {
	req   txnRequest
	keys  []int
	write []bool
	rng   sim.FastRNG
	buf   []byte
	// query is the request's raw query, copied and then decoded in place
	// by parseTxnQuery.
	query []byte
	// body presents a link frame's JSON body as the io.Reader the decoder
	// wants (the HTTP adapter passes r.Body itself).
	body bytes.Reader
}

// txnScratchPool recycles scratch across requests. New is nil on
// purpose: the miss path in getTxnScratch carries the audited waiver.
var txnScratchPool sync.Pool

//loadctl:hotpath
func getTxnScratch() *txnScratch {
	sc, ok := txnScratchPool.Get().(*txnScratch)
	if !ok {
		sc = &txnScratch{buf: make([]byte, 0, 256)} //loadctl:allocok audited: pool miss — cold start only, scratch recycles in steady state
	}
	sc.req = txnRequest{}
	return sc
}

//loadctl:hotpath
func putTxnScratch(sc *txnScratch) { txnScratchPool.Put(sc) }

// parseTxnQuery applies the raw query q onto req with url.ParseQuery's
// grammar and url.Values.Get's lookup: pairs split on '&'; a pair holding
// ';' or a malformed %XX escape is skipped whole; keys and values decode
// %XX and '+' (space); the first occurrence of a key wins, and one with an
// empty value means "absent"; unknown keys are ignored. k/base/span must
// parse as integers within their floors or the request is a 400 — the
// non-empty errMsg, naming the first bad parameter in query order.
//
// Decoding happens in place (it only ever shrinks a pair), so q is
// scratch the caller owns, and req's strings alias it until q is reused.
// FuzzTxnQueryParse holds this to url.ParseQuery.
//
//loadctl:hotpath
func parseTxnQuery(q []byte, req *txnRequest) (errMsg string) {
	var seenClass, seenShape, seenK, seenBase, seenSpan bool
	for len(q) > 0 {
		pair := q
		if i := bytes.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			q = nil
		}
		if len(pair) == 0 || bytes.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val := pair, pair[len(pair):]
		if i := bytes.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		key, okKey := unescapeQuery(key)
		val, okVal := unescapeQuery(val)
		if !okKey || !okVal {
			continue
		}
		var (
			seen  *bool
			dst   *int
			floor int
			bad   string
		)
		switch view(key) {
		case "class":
			if !seenClass && len(val) > 0 {
				req.Class = view(val)
			}
			seenClass = true
			continue
		case "shape":
			if !seenShape && len(val) > 0 {
				req.Shape = view(val)
			}
			seenShape = true
			continue
		case "k":
			seen, dst, floor, bad = &seenK, &req.K, 1, "bad k"
		case "base":
			seen, dst, floor, bad = &seenBase, &req.Base, 0, "bad base"
		case "span":
			seen, dst, floor, bad = &seenSpan, &req.Span, 0, "bad span"
		default:
			continue
		}
		if *seen {
			continue
		}
		*seen = true
		if len(val) > 0 {
			n, err := strconv.Atoi(view(val))
			if err != nil || n < floor {
				return bad
			}
			*dst = n
		}
	}
	return ""
}

// unescapeQuery decodes b in place as url.QueryUnescape does — %XX escapes
// and '+' as a space — and returns the decoded prefix; ok is false for a
// '%' not followed by two hex digits.
//
//loadctl:hotpath
func unescapeQuery(b []byte) (_ []byte, ok bool) {
	w := 0
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch c {
		case '%':
			if i+2 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) {
				return nil, false
			}
			c = unhex(b[i+1])<<4 | unhex(b[i+2])
			i += 2
		case '+':
			c = ' '
		}
		b[w] = c
		w++
	}
	return b[:w], true
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c >= 'a':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

// view returns b as a string without copying; it is valid only while b's
// bytes are unchanged, which every caller's comment bounds.
//
//loadctl:hotpath
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// buildSpecFast samples one transaction's access set into the scratch's
// reused slices: k distinct items from the key range [base, base+span)
// mod Items (span<=0 = the whole store), write intent per position for
// updaters. Same sampling contract as the retired buildSpec, but the
// generator is the value-type FastRNG and the slices amortize to zero
// allocations.
//
//loadctl:hotpath
func (s *Server) buildSpecFast(sc *txnScratch, k int, query bool, writeFrac float64, base, span int) TxnSpec {
	domain := s.cfg.Items
	if span > 0 && span < domain {
		domain = span
	}
	if k < 1 {
		k = 1
	}
	if k > domain {
		k = domain
	}
	if cap(sc.keys) < k {
		sc.keys = make([]int, k)   //loadctl:allocok audited: capacity growth to the largest k seen, then reused for the scratch's lifetime
		sc.write = make([]bool, k) //loadctl:allocok audited: capacity growth, as above
	}
	spec := TxnSpec{Keys: sc.keys[:k], Write: sc.write[:k]}
	sc.rng.SampleDistinct(spec.Keys, domain)
	if base > 0 {
		for i := range spec.Keys {
			spec.Keys[i] = (spec.Keys[i] + base) % s.cfg.Items
		}
	}
	if query {
		for i := range spec.Write {
			spec.Write[i] = false
		}
		return spec
	}
	wrote := false
	for i := range spec.Write {
		spec.Write[i] = sc.rng.Bernoulli(writeFrac)
		wrote = wrote || spec.Write[i]
	}
	if !wrote {
		// An updater writes at least one item, as in the simulation model.
		spec.Write[sc.rng.Intn(k)] = true
	}
	return spec
}

// setHeaderValue is http.Header.Set without the per-call []string
// allocation when the key is already present (Set always allocates a
// fresh one-element slice). Keys must be in canonical form already.
//
//loadctl:hotpath
func setHeaderValue(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value} //loadctl:allocok audited: first Set of this key on the response — one slice per header per response, the map entry then reused
}

// jsonPlain reports whether s can be embedded in a JSON string without
// escaping. Class names are operator configuration, so the fast
// renderer checks rather than trusts; a name that needs escaping falls
// back to encoding/json.
//
//loadctl:hotpath
func jsonPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// renderTxn renders a txnResponse by hand into the pooled buffer and
// returns it — the shape (field order, omitempty behavior) matches the
// encoding/json rendering of txnResponse, which remains the fallback
// for class names that would need escaping.
//
//loadctl:hotpath
func renderTxn(sc *txnScratch, status, shape, admissionClass string, attempts int, latMS float64) []byte {
	if !jsonPlain(shape) || !jsonPlain(admissionClass) {
		// A struct of strings and a finite latency: the encode cannot fail.
		b, _ := telemetry.EncodeJSON(txnResponse{Status: status, Class: shape, AdmissionClass: admissionClass, Attempts: attempts, LatencyMS: latMS}) //loadctl:allocok audited: fallback for class names needing JSON escaping — never taken with plain config
		return b
	}
	b := append(sc.buf[:0], `{"status":"`...)
	b = append(b, status...)
	b = append(b, '"')
	if shape != "" {
		b = append(b, `,"class":"`...)
		b = append(b, shape...)
		b = append(b, '"')
	}
	if admissionClass != "" {
		b = append(b, `,"admission_class":"`...)
		b = append(b, admissionClass...)
		b = append(b, '"')
	}
	if attempts != 0 {
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(attempts), 10)
	}
	b = append(b, `,"latency_ms":`...)
	b = strconv.AppendFloat(b, latMS, 'f', -1, 64)
	b = append(b, '}', '\n')
	sc.buf = b
	return b
}
