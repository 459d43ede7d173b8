package reqtrace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0), 1 << 63} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%#x) = %q: want 16 hex digits", id, s)
		}
		got, ok := ParseID(s)
		if !ok || got != id {
			t.Fatalf("ParseID(FormatID(%#x)) = %#x, %v", id, got, ok)
		}
	}
	for _, bad := range []string{"", "0", "000000000000000", "0000000000000000", "xyzyxzyxzyxzyxzy", "00000000000000001"} {
		if _, ok := ParseID(bad); ok {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
}

func TestNewIDNonzero(t *testing.T) {
	for i := 0; i < 1000; i++ {
		if NewID() == 0 {
			t.Fatal("NewID minted 0")
		}
	}
}

func TestFromRequest(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/txn", nil)
	if _, ok := FromRequest(r); ok {
		t.Fatal("trace ID found on a bare request")
	}
	r.Header.Set(Header, FormatID(42))
	id, ok := FromRequest(r)
	if !ok || id != 42 {
		t.Fatalf("FromRequest = %d, %v; want 42, true", id, ok)
	}
}

// TestHeadSampling: capture is a pure function of the ID residue.
func TestHeadSampling(t *testing.T) {
	rec := New(Config{SampleEvery: 4, SlowN: -1})
	for id := uint64(1); id <= 16; id++ {
		a := rec.Begin(id)
		want := id%4 == 0
		if a.Sampled() != want {
			t.Errorf("id %d: Sampled() = %v, want %v", id, a.Sampled(), want)
		}
		a.Finish(StatusCommitted, true)
	}
	d := rec.Dump()
	if d.Counts.Head != 4 || len(d.Ring) != 4 {
		t.Fatalf("head captures = %d, ring %d; want 4, 4", d.Counts.Head, len(d.Ring))
	}
	for _, tr := range d.Ring {
		if tr.Capture != CaptureHead {
			t.Errorf("ring trace capture %q, want head", tr.Capture)
		}
	}
}

// TestErrorCapture: failures are retained regardless of sampling.
func TestErrorCapture(t *testing.T) {
	rec := New(Config{SampleEvery: 1 << 30, SlowN: -1})
	a := rec.Begin(3) // unsampled
	a.SetAdmit(17.5, 0b10)
	a.Span(SpanQueue, 0, DetailTimeout, 0)
	a.Finish(StatusTimeout, false)
	d := rec.Dump()
	if len(d.Ring) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(d.Ring))
	}
	tr := d.Ring[0]
	if tr.Capture != CaptureError || tr.Status != StatusTimeout {
		t.Fatalf("trace = %+v; want error capture, timeout status", tr)
	}
	if tr.Limit != 17.5 || tr.ShedMask != 0b10 {
		t.Fatalf("admit state = (%g, %b); want (17.5, 10)", tr.Limit, tr.ShedMask)
	}
}

// TestRingConcurrentSnapshot is obs.TestRingConcurrentSnapshot for this
// package's ring, which keeps the same discipline with many writers: while
// traces stream through a 32-slot ring, no snapshot may pair a trace with
// one more than two laps newer (WallNanos carries the write sequence).
func TestRingConcurrentSnapshot(t *testing.T) {
	var r ring
	r.slots = make([]atomic.Pointer[Trace], 32)
	const writes = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.snapshot()
				if len(snap) > 32 {
					t.Errorf("snapshot of %d traces from a 32-slot ring", len(snap))
					return
				}
				var newest int64
				for _, tr := range snap {
					newest = max(newest, tr.WallNanos)
				}
				for _, tr := range snap {
					if newest-tr.WallNanos >= 64 {
						t.Errorf("seq %d survived alongside %d", tr.WallNanos, newest)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= writes; i++ {
		r.put(&Trace{WallNanos: i})
	}
	close(stop)
	wg.Wait()
}

// TestRingWrap: the ring keeps the newest RingSize traces.
func TestRingWrap(t *testing.T) {
	rec := New(Config{SampleEvery: 1, RingSize: 4, SlowN: -1})
	for id := uint64(1); id <= 10; id++ {
		rec.Begin(id).Finish(StatusCommitted, true)
	}
	d := rec.Dump()
	if len(d.Ring) != 4 {
		t.Fatalf("ring holds %d, want 4", len(d.Ring))
	}
	want := map[string]bool{FormatID(7): true, FormatID(8): true, FormatID(9): true, FormatID(10): true}
	for _, tr := range d.Ring {
		if !want[tr.ID] {
			t.Errorf("ring kept %s; want only the newest 4", tr.ID)
		}
	}
}

// TestSlowTail: the slow tail keeps the N slowest and ring churn cannot
// evict them.
func TestSlowTail(t *testing.T) {
	rec := New(Config{SampleEvery: -1, RingSize: 2, SlowN: 2})
	walls := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, time.Millisecond, 20 * time.Millisecond}
	for i, w := range walls {
		a := rec.Begin(uint64(i + 1))
		a.FinishWall(StatusCommitted, true, w)
	}
	d := rec.Dump()
	if len(d.Slowest) != 2 {
		t.Fatalf("slow tail holds %d, want 2", len(d.Slowest))
	}
	if d.Slowest[0].WallNanos != (50*time.Millisecond).Nanoseconds() ||
		d.Slowest[1].WallNanos != (20*time.Millisecond).Nanoseconds() {
		t.Fatalf("slow tail = %d, %d ns; want 50ms, 20ms slowest-first",
			d.Slowest[0].WallNanos, d.Slowest[1].WallNanos)
	}
	if len(d.Ring) != 0 {
		t.Fatalf("ring holds %d with head sampling off and no errors", len(d.Ring))
	}
}

// TestSpanCap: recording past the fixed cap drops and counts.
func TestSpanCap(t *testing.T) {
	rec := New(Config{SampleEvery: 1, SlowN: -1})
	a := rec.Begin(1)
	for i := 0; i < maxSpans+3; i++ {
		a.Span(SpanExec, 0, DetailAborted, i+1)
	}
	a.Finish(StatusAborted, false)
	d := rec.Dump()
	if len(d.Ring) != 1 {
		t.Fatal("trace not captured")
	}
	tr := d.Ring[0]
	if len(tr.Spans) != maxSpans || tr.SpansDropped != 3 {
		t.Fatalf("spans %d dropped %d; want %d and 3", len(tr.Spans), tr.SpansDropped, maxSpans)
	}
}

// TestSpanReconcile: sequential span durations sum to at most the wall.
func TestSpanReconcile(t *testing.T) {
	rec := New(Config{SampleEvery: 1})
	a := rec.Begin(2048) // sampled (2048 % 1024 == 0)
	s1 := a.Now()
	time.Sleep(2 * time.Millisecond)
	a.Span(SpanQueue, s1, DetailAdmitted, 0)
	s2 := a.Now()
	time.Sleep(2 * time.Millisecond)
	a.Span(SpanExec, s2, DetailCommitted, 1)
	a.Finish(StatusCommitted, true)
	d := rec.Dump()
	if len(d.Ring) != 1 {
		t.Fatal("trace not captured")
	}
	tr := d.Ring[0]
	var sum int64
	for _, sp := range tr.Spans {
		if sp.StartNanos < 0 || sp.DurNanos < 0 {
			t.Fatalf("negative span %+v", sp)
		}
		if sp.StartNanos+sp.DurNanos > tr.WallNanos {
			t.Fatalf("span %+v ends past wall %d", sp, tr.WallNanos)
		}
		sum += sp.DurNanos
	}
	if sum > tr.WallNanos {
		t.Fatalf("span durations sum %d > wall %d", sum, tr.WallNanos)
	}
}

// TestDumpJSONRoundTrip: the handler's JSON decodes and re-encodes
// byte-identically — the schema has no nondeterministic parts.
func TestDumpJSONRoundTrip(t *testing.T) {
	rec := New(Config{SampleEvery: 1, SlowN: 2})
	for id := uint64(1); id <= 5; id++ {
		a := rec.Begin(id)
		a.Annotate("interactive")
		a.SetAdmit(8, 1)
		s := a.Now()
		a.Span(SpanQueue, s, DetailAdmitted, 0)
		a.Span(SpanExec, a.Now(), DetailCommitted, 1)
		if id == 3 {
			a.Finish(StatusAborted, false)
		} else {
			a.Finish(StatusCommitted, true)
		}
	}
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var d2 Dump
	if err := json.Unmarshal(first, &d2); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(d2)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("dump does not round-trip:\n%s\nvs\n%s", first, second)
	}
}

// TestUnsampledNoAlloc: the Begin → record → Finish cycle of an
// unsampled, healthy, fast request allocates nothing in steady state —
// the property the CI alloc gate holds the /txn hot path to.
func TestUnsampledNoAlloc(t *testing.T) {
	rec := New(Config{SampleEvery: -1, SlowN: -1})
	id := NewID()
	allocs := testing.AllocsPerRun(1000, func() {
		a := rec.Begin(id)
		a.Annotate("default")
		s := a.Now()
		a.Span(SpanQueue, s, DetailAdmitted, 0)
		a.SetAdmit(16, 0)
		a.Span(SpanExec, a.Now(), DetailCommitted, 1)
		a.FinishWall(StatusCommitted, true, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("unsampled trace cycle allocates %.1f/op; want 0", allocs)
	}
}

// TestSlowTailWarmFastPath: once the tail is full, requests under the
// floor stay allocation-free.
func TestSlowTailWarmFastPath(t *testing.T) {
	rec := New(Config{SampleEvery: -1, SlowN: 2})
	for i := 0; i < 2; i++ {
		rec.Begin(uint64(i+1)).FinishWall(StatusCommitted, true, time.Second)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a := rec.Begin(7)
		a.FinishWall(StatusCommitted, true, time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("under-floor trace cycle allocates %.1f/op; want 0", allocs)
	}
}

func BenchmarkUnsampledCycle(b *testing.B) {
	rec := New(Config{}) // defaults: 1/1024 head sampling, slow tail 16
	// Warm the slow tail so the bench measures the steady state.
	for i := 0; i < 16; i++ {
		rec.Begin(uint64(i)*1024+1).FinishWall(StatusCommitted, true, time.Hour)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a := rec.Begin(3) // 3 % 1024 != 0: unsampled
			s := a.Now()
			a.Span(SpanQueue, s, DetailAdmitted, 0)
			a.SetAdmit(16, 0)
			a.Span(SpanExec, a.Now(), DetailCommitted, 1)
			a.Finish(StatusCommitted, true)
		}
	})
}
