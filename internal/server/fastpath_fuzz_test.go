package server

import "testing"

// FuzzTxnQueryParse holds the zero-alloc query parser to the legacy
// url.Values reference path by differential testing: for every raw query
// in the plain subset (canFastParseQuery), the two parsers must either
// produce the identical txnRequest or both answer 400. The 400 messages
// may differ — the fast parser reports the first bad parameter in query
// order, the legacy one in its fixed k/base/span order — but a request
// must never be accepted by one parser and rejected by the other, and an
// accepted request must decode identically. Queries outside the plain
// subset are exactly the ones handleTxn routes to the legacy parser, so
// there is nothing to compare there.
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
		"k=+8", // outside the plain subset: not compared
		"class=a%20b",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if !canFastParseQuery(raw) {
			return
		}
		var fast, legacy txnRequest
		fastErr := parseTxnQueryFast(raw, &fast)
		legacyErr := parseTxnQueryLegacy(raw, &legacy)
		if (fastErr == "") != (legacyErr == "") {
			t.Fatalf("raw %q: fast err %q, legacy err %q", raw, fastErr, legacyErr)
		}
		if fastErr != "" {
			return // both 400
		}
		if fast != legacy {
			t.Fatalf("raw %q: fast %+v != legacy %+v", raw, fast, legacy)
		}
	})
}
