package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// TestEndToEndRequestTracing is the two-tier tracing acceptance test: a
// proxy over an in-process backend, /debug/requests fetched from both.
// Asserts (a) a head-sampled request is captured in both tiers' rings
// under the same trace ID (sampling is a pure function of the ID, so the
// tiers agree without coordination); (b) every rejected request has a
// backend trace carrying the shed reason and the controller limit at
// rejection time; (c) the slow tail holds the deliberately slowed
// transactions, sampled or not.
func TestEndToEndRequestTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test: ~1s of deliberately slowed transactions")
	}

	const (
		svc        = 2 * time.Millisecond
		pool       = 4.0
		slowFactor = 250 // svc × 250 = 500ms — unmistakably the slowest
	)
	backend := startBackendWith(t, svc, pool, 200*time.Millisecond, func(c *server.Config) {
		c.Reject = true // a full gate answers 429 immediately — deterministic shed
		c.ReqTrace = reqtrace.Config{SampleEvery: 8}
	})
	p := newTestProxy(t, Config{
		Backends:       []string{backend.url()},
		HealthInterval: 25 * time.Millisecond,
		ReqTrace:       reqtrace.Config{SampleEvery: 8},
	})
	front := serveProxy(t, p)

	// ---- (a) one head-sampled request, visible in both rings ----
	const sampledID = "0000000000000008" // 8 ≡ 0 mod SampleEvery
	if resp := postTraced(t, front, sampledID); resp.StatusCode != http.StatusOK {
		t.Fatalf("sampled request: status %d, want 200", resp.StatusCode)
	}
	ptr := findTrace(fetchDump(t, front.URL).Ring, sampledID)
	btr := findTrace(fetchDump(t, backend.url()).Ring, sampledID)
	if ptr == nil || btr == nil {
		t.Fatalf("sampled trace %s missing from a ring: proxy=%v backend=%v", sampledID, ptr != nil, btr != nil)
	}
	if ptr.Tier != "proxy" || btr.Tier != "server" {
		t.Fatalf("tiers: proxy trace says %q, backend trace says %q", ptr.Tier, btr.Tier)
	}
	if btr.Status != reqtrace.StatusCommitted || btr.Limit != pool {
		t.Fatalf("backend trace: status=%q limit=%g, want committed/%g", btr.Status, btr.Limit, pool)
	}
	var sawQueue, sawExec, sawRelay bool
	for _, sp := range btr.Spans {
		sawQueue = sawQueue || (sp.Name == reqtrace.SpanQueue && sp.Detail == reqtrace.DetailAdmitted)
		sawExec = sawExec || (sp.Name == reqtrace.SpanExec && sp.Detail == reqtrace.DetailCommitted)
	}
	for _, sp := range ptr.Spans {
		sawRelay = sawRelay || (sp.Name == reqtrace.SpanRelay && sp.Detail == reqtrace.DetailRelayed)
	}
	if !sawQueue || !sawExec || !sawRelay {
		t.Fatalf("span schema incomplete: queue-admitted=%v exec-committed=%v relay=%v\nbackend: %+v\nproxy: %+v",
			sawQueue, sawExec, sawRelay, btr.Spans, ptr.Spans)
	}

	// ---- (c setup) fill the pool with deliberately slowed transactions ----
	backend.eng.factor.Store(slowFactor)
	slowID := func(i int) string { return fmt.Sprintf("%016x", 0xa1+uint64(i)) } // ≢ 0 mod 8: unsampled
	var wg sync.WaitGroup
	for i := 0; i < int(pool); i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, front.URL+"/txn", nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set(reqtrace.Header, id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("slow txn %s: status %d", id, resp.StatusCode)
			}
		}(slowID(i))
	}
	waitFor(t, "pool full of slow transactions", func() bool {
		return backend.srv.SnapshotNow(false).Active == int(pool)
	})

	// ---- (b) rejected requests: every one leaves a trace ----
	const rejects = 6
	rejectID := func(i int) string { return fmt.Sprintf("%016x", 0x31+uint64(i)) } // ≢ 0 mod 8
	for i := 0; i < rejects; i++ {
		if resp := postTraced(t, front, rejectID(i)); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("reject %d: status %d, want 429", i, resp.StatusCode)
		}
	}
	dump := fetchDump(t, backend.url())
	for i := 0; i < rejects; i++ {
		tr := findTrace(dump.Ring, rejectID(i))
		if tr == nil {
			t.Fatalf("rejected request %s left no trace (failures must never be sampled away)", rejectID(i))
		}
		if tr.Status != reqtrace.StatusRejected || tr.Capture != reqtrace.CaptureError {
			t.Fatalf("reject trace %s: status=%q capture=%q", tr.ID, tr.Status, tr.Capture)
		}
		if tr.Limit != pool {
			t.Fatalf("reject trace %s: controller limit %g at rejection, want %g", tr.ID, tr.Limit, pool)
		}
		var shedSpan bool
		for _, sp := range tr.Spans {
			shedSpan = shedSpan || (sp.Name == reqtrace.SpanQueue && sp.Detail == reqtrace.DetailRejected)
		}
		if !shedSpan {
			t.Fatalf("reject trace %s carries no shed reason: %+v", tr.ID, tr.Spans)
		}
	}
	if dump.Counts.Errors < rejects {
		t.Fatalf("backend error-capture count %d < %d rejects", dump.Counts.Errors, rejects)
	}

	// ---- (c) the slowed transactions dominate the slow tail ----
	wg.Wait()
	dump = fetchDump(t, backend.url())
	pdump := fetchDump(t, front.URL)
	for i := 0; i < int(pool); i++ {
		str := findTrace(dump.Slowest, slowID(i))
		if str == nil {
			t.Fatalf("slowed transaction %s missing from the backend slow tail", slowID(i))
		}
		if str.WallNanos < (svc * slowFactor).Nanoseconds() {
			t.Fatalf("slow trace %s wall %dns below the engineered %s", str.ID, str.WallNanos, svc*slowFactor)
		}
		if findTrace(pdump.Slowest, slowID(i)) == nil {
			t.Fatalf("slowed transaction %s missing from the proxy slow tail", slowID(i))
		}
	}
	// Unsampled and healthy, so the slow door did the capturing: the
	// slowed transactions must not be in the head/error ring.
	if tr := findTrace(dump.Ring, slowID(0)); tr != nil {
		t.Fatalf("unsampled healthy transaction %s in the capture ring (capture=%q)", slowID(0), tr.Capture)
	}
}
