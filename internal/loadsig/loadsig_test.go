package loadsig

import (
	"encoding/json"
	"math"
	"testing"
)

func TestEncodeParseRoundTrip(t *testing.T) {
	cases := []Signal{
		{Status: StatusOK, Limit: 24, Active: 20, Queued: 5, Util: 0.8333},
		{Status: StatusDraining, Limit: 8, Active: 8, Queued: 12, Util: 1,
			Shedding: []string{"batch", "readonly"}},
		{Status: StatusOK, Limit: math.Inf(1), Active: 3},
		{}, // zero value: status defaults to ok on encode
	}
	for _, want := range cases {
		got, err := Parse(want.Encode())
		if err != nil {
			t.Fatalf("Parse(%q): %v", want.Encode(), err)
		}
		if want.Status == "" {
			want.Status = StatusOK
		}
		if got.Status != want.Status || got.Active != want.Active || got.Queued != want.Queued {
			t.Fatalf("round trip %q: got %+v, want %+v", want.Encode(), got, want)
		}
		if math.IsInf(want.Limit, 1) != math.IsInf(got.Limit, 1) {
			t.Fatalf("round trip lost infinity: got %v, want %v", got.Limit, want.Limit)
		}
		if !math.IsInf(want.Limit, 1) && math.Abs(got.Limit-want.Limit) > 1e-9 {
			t.Fatalf("limit: got %v, want %v", got.Limit, want.Limit)
		}
		if math.Abs(got.Util-want.Util) > 1e-3 {
			t.Fatalf("util: got %v, want %v", got.Util, want.Util)
		}
		if len(got.Shedding) != len(want.Shedding) {
			t.Fatalf("shedding: got %v, want %v", got.Shedding, want.Shedding)
		}
		for i := range want.Shedding {
			if got.Shedding[i] != want.Shedding[i] {
				t.Fatalf("shedding[%d]: got %v, want %v", i, got.Shedding, want.Shedding)
			}
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"status",    // no '='
		"limit=abc", // unparseable number
		"active=-1", // negative count
		"queued=x",  // unparseable count
		"util=-0.5", // negative utilization
		"util=NaN",  // NaN
		"status=",   // empty status
		"limit=NaN", // NaN limit
	}
	for _, h := range bad {
		if _, err := Parse(h); err == nil {
			t.Errorf("Parse(%q): want error, got nil", h)
		}
	}
}

func TestParseSkipsUnknownKeysAndBlanks(t *testing.T) {
	s, err := Parse("status=ok;future_key=7;;limit=4;active=2;queued=0;util=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Limit != 4 || s.Active != 2 || s.Util != 0.5 {
		t.Fatalf("unexpected signal %+v", s)
	}
}

func TestShedAndDraining(t *testing.T) {
	s := &Signal{Status: StatusDraining, Shedding: []string{"batch"}}
	if !s.Draining() {
		t.Fatal("Draining() = false")
	}
	if !s.Shed("batch") || s.Shed("interactive") {
		t.Fatalf("Shed lookup wrong: %+v", s)
	}
}

func TestUtilOf(t *testing.T) {
	if got := UtilOf(5, 10); got != 0.5 {
		t.Fatalf("UtilOf(5,10) = %v", got)
	}
	if got := UtilOf(5, math.Inf(1)); got != 0 {
		t.Fatalf("UtilOf inf = %v", got)
	}
	if got := UtilOf(5, 0); got != 0 {
		t.Fatalf("UtilOf zero limit = %v", got)
	}
}

// TestJSONInfiniteLimit: JSON has no infinity, so an uncontrolled
// backend's limit travels as math.MaxFloat64 and must decode back to +Inf,
// like the header form's "inf" — by value and by pointer, as /healthz and
// the proxy's snapshot encode it.
func TestJSONInfiniteLimit(t *testing.T) {
	in := Signal{Status: StatusOK, Limit: math.Inf(1), Active: 3, Shedding: []string{"batch"}}
	for name, v := range map[string]any{"value": in, "pointer": &in, "nested": struct{ S *Signal }{&in}} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "nested" {
			continue
		}
		var out Signal
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("%s: %v in %s", name, err, b)
		}
		if !math.IsInf(out.Limit, 1) || out.Active != 3 || out.Status != StatusOK || !out.Shed("batch") {
			t.Fatalf("%s: %s decoded to %+v, want limit +Inf", name, b, out)
		}
	}
	if !math.IsInf(in.Limit, 1) {
		t.Fatal("encoding modified the caller's signal")
	}
	var s Signal
	if err := json.Unmarshal([]byte(`{"status":"ok","limit":24}`), &s); err != nil || s.Limit != 24 {
		t.Fatalf("finite limit decoded as %v (%v)", s.Limit, err)
	}
}
