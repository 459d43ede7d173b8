package server

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// The /txn fast path: pooled per-request scratch state, a zero-alloc
// query parser for the committed /txn vocabulary, and manual JSON
// response rendering into a pooled buffer. Everything here exists to
// keep the steady-state request cycle free of per-request heap traffic;
// handleTxn (transport.go) is the consumer.

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

// canFastParseQuery reports whether rawQuery is in the plain subset the
// zero-alloc parser handles. Percent escapes, '+' (space) and ';'
// (a parse error since Go 1.17) bail to the legacy url.Values path, so
// the fast parser never has to replicate decoding or error semantics —
// on the plain subset the two parsers are behavior-identical (the
// differential fuzz test FuzzTxnQueryParse holds them to that).
//
//loadctl:hotpath
func canFastParseQuery(raw string) bool {
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '%', '+', ';':
			return false
		}
	}
	return true
}

// parseTxnQueryFast applies rawQuery (plain subset only — the caller
// must have checked canFastParseQuery) onto req with exactly the legacy
// path's semantics: the first occurrence of a key wins, a first
// occurrence with an empty value means "absent" (url.Values.Get returns
// the empty first value), unknown keys are ignored, and k/base/span
// must parse as integers within their floors or the request is a 400.
// A non-empty errMsg is the 400 message.
//
//loadctl:hotpath
func parseTxnQueryFast(raw string, req *txnRequest) (errMsg string) {
	var seenClass, seenShape, seenK, seenBase, seenSpan bool
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		switch key {
		case "class":
			if seenClass {
				continue
			}
			seenClass = true
			if val != "" {
				req.Class = val
			}
		case "shape":
			if seenShape {
				continue
			}
			seenShape = true
			if val != "" {
				req.Shape = val
			}
		case "k":
			if seenK {
				continue
			}
			seenK = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return "bad k"
				}
				req.K = n
			}
		case "base":
			if seenBase {
				continue
			}
			seenBase = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return "bad base"
				}
				req.Base = n
			}
		case "span":
			if seenSpan {
				continue
			}
			seenSpan = true
			if val != "" {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return "bad span"
				}
				req.Span = n
			}
		}
	}
	return ""
}

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
