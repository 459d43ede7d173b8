package server

import (
	"net/url"
	"strconv"
	"testing"
)

// queryOracle is the reference reading of a /txn query: url.ParseQuery
// keeps what parsed of a query that is partly malformed, url.Values.Get
// takes a key's first value, and k/base/span are checked against their
// floors in that fixed order.
func queryOracle(raw string, req *txnRequest) (errMsg string) {
	q, _ := url.ParseQuery(raw)
	if v := q.Get("class"); v != "" {
		req.Class = v
	}
	if v := q.Get("shape"); v != "" {
		req.Shape = v
	}
	for _, p := range []struct {
		name string
		bad  string
		dst  *int
		min  int
	}{
		{"k", "bad k", &req.K, 1},
		{"base", "bad base", &req.Base, 0},
		{"span", "bad span", &req.Span, 0},
	} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < p.min {
			return p.bad
		}
		*p.dst = n
	}
	return ""
}

// FuzzTxnQueryParse holds the zero-alloc query parser to url.ParseQuery by
// differential testing: for every raw query the two must either produce
// the identical txnRequest or both answer 400. The 400 messages may
// differ — parseTxnQuery reports the first bad parameter in query order,
// the oracle in its fixed k/base/span order — but a request must never be
// accepted by one and rejected by the other, and an accepted request must
// decode identically.
func FuzzTxnQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"class=update&k=8",
		"class=query&k=8&base=128&span=1024",
		"k=&k=5",          // first occurrence wins, even when empty
		"class=a&class=b", // first occurrence wins
		"k=0",             // below the k floor
		"base=-1",
		"span=-1&k=bad", // two bad parameters: both parsers must 400
		"shape=update",
		"foo=bar&class=x", // unknown keys ignored
		"k",               // key without '='
		"=v",              // value without key
		"&&&",
		"class==x",
		"k=00008",
		"k=+8", // '+' decodes to a space: not a number
		"class=a%20b",
		"class=inter%61ctive&shape=upd%61te&k=%34",
		"k=%2d1",
		"k=5;x&k=6",  // a pair holding ';' is skipped whole
		"k=%zz&k=7",  // so is one with a bad escape
		"%6b=3&k=9",  // an escaped key counts as the key
		"class=a+b%", // a trailing '%' is a bad escape
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var fast, oracle txnRequest
		fastErr := parseTxnQuery([]byte(raw), &fast)
		oracleErr := queryOracle(raw, &oracle)
		if (fastErr == "") != (oracleErr == "") {
			t.Fatalf("raw %q: parser err %q, oracle err %q", raw, fastErr, oracleErr)
		}
		if fastErr != "" {
			return // both 400
		}
		if fast != oracle {
			t.Fatalf("raw %q: parser %+v != oracle %+v", raw, fast, oracle)
		}
	})
}
