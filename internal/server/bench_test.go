package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/kv"
)

// /txn hot-path benchmarks: the full handler (admission gate → engine →
// striped accounting), driven in-process so the measurement is the
// serving spine, not the TCP stack. Every benchmark has a serial variant
// (the honest 1-vCPU trajectory) and a RunParallel variant where the
// sharded store and striped counters can show their payoff. Run the
// matrix with
//
//	go test -run '^$' -bench BenchmarkTxn -cpu 1,2,4,8 ./internal/server
//
// The uncontrolled limit and the hour-long measurement interval keep the
// gate and the tick out of the picture; what remains is exactly the path
// this package must scale.
//
// Harness note (PR 10 comparability break): through PR 9 these
// benchmarks built a fresh httptest.NewRequest + NewRecorder per
// iteration, which alone costs ~10 allocs and ~5.2KB — by PR 10 that is
// double the handler's own footprint, so the harness noise would bury
// the signal being gated. The benchmark now reuses one request and one
// minimal recorder per goroutine (the handler treats requests as
// read-only), so allocs/op and B/op measure the handler alone.
// EXPERIMENTS.md tabulates the trajectory on both sides of the break.

// benchRecorder is the minimal reusable http.ResponseWriter: it keeps
// one header map for the handler to write into (entries are overwritten
// in place by link.Answer.WriteHTTP) and discards bodies.
type benchRecorder struct {
	header http.Header
	code   int
}

func (r *benchRecorder) Header() http.Header         { return r.header }
func (r *benchRecorder) WriteHeader(code int)        { r.code = code }
func (r *benchRecorder) Write(p []byte) (int, error) { return len(p), nil }

func benchTxnServer(b *testing.B, shards int, params string, group, parallel bool) {
	store := kv.NewStoreShards(1024, shards)
	if group {
		store.EnableGroupCommit()
	}
	s, err := New(Config{
		Controller: core.NewStatic(1 << 20),
		Engine:     NewOCC(store),
		Items:      store.Size(),
		Interval:   time.Hour,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	iter := func(h http.Handler, req *http.Request, rec *benchRecorder) bool {
		rec.code = 0
		h.ServeHTTP(rec, req)
		if rec.code != http.StatusOK && rec.code != http.StatusConflict {
			b.Errorf("/txn answered %d", rec.code)
			return false
		}
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			req := httptest.NewRequest(http.MethodPost, "/txn"+params, nil)
			rec := &benchRecorder{header: make(http.Header)}
			for pb.Next() {
				if !iter(h, req, rec) {
					return
				}
			}
		})
		return
	}
	req := httptest.NewRequest(http.MethodPost, "/txn"+params, nil)
	rec := &benchRecorder{header: make(http.Header)}
	for i := 0; i < b.N; i++ {
		if !iter(h, req, rec) {
			return
		}
	}
}

// benchShardCounts is fixed, not derived from GOMAXPROCS: benchmark
// names feed the committed-baseline diff (cmd/benchjson -baseline), so
// they must be identical on every machine that runs the suite.
func benchShardCounts() []int { return []int{1, 8} }

func benchTxnVariants(b *testing.B, params string, group bool) {
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("kvshards=%d/serial", shards), func(b *testing.B) {
			benchTxnServer(b, shards, params, group, false)
		})
		b.Run(fmt.Sprintf("kvshards=%d/parallel", shards), func(b *testing.B) {
			benchTxnServer(b, shards, params, group, true)
		})
	}
}

// BenchmarkTxnUpdateHeavy is all updaters writing every accessed item —
// the mix that fully serialized on the old global commit lock.
func BenchmarkTxnUpdateHeavy(b *testing.B) {
	benchTxnVariants(b, "?class=update&k=8", false)
}

// BenchmarkTxnReadHeavy is all queries — reads share shard RLocks and the
// striped accounting is the only write traffic.
func BenchmarkTxnReadHeavy(b *testing.B) {
	benchTxnVariants(b, "?class=query&k=8", false)
}

// BenchmarkTxnUpdateHeavyGroupCommit is the update mix with the kv
// group-commit batcher on: serial runs price the batcher's overhead
// (every batch is a batch of one), parallel runs at -cpu > 1 show the
// amortized shard-lock acquisition.
func BenchmarkTxnUpdateHeavyGroupCommit(b *testing.B) {
	benchTxnVariants(b, "?class=update&k=8", true)
}

// BenchmarkTxnFrontDoor is BenchmarkTxnUpdateHeavy (one shard, serial)
// entered through the front door: one keep-alive connection over a real
// loopback socket, the request prebuilt and the answer read in place, so
// what allocates is the door's serve loop and the transaction path. Its
// name puts it under the same exact 0 allocs/op CI gate.
func BenchmarkTxnFrontDoor(b *testing.B) {
	store := kv.NewStoreShards(1024, 1)
	s, err := New(Config{
		Controller: core.NewStatic(1 << 20),
		Engine:     NewOCC(store),
		Items:      store.Size(),
		Interval:   time.Hour,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(s.FrontDoor(ln))
	defer hs.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	req := []byte("POST /txn?class=update&k=8 HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
	doorRoundTrip(b, nc, br, req) // the connection's first request sets up its buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doorRoundTrip(b, nc, br, req)
	}
}

// BenchmarkTickSLO measures one control-loop tick in slo mode over a
// three-class server with warm histograms: the per-class histogram
// snapshot, the interval delta and its p95 quantile scans, the SLO
// controller updates, and the telemetry fold. This is the fixed per-
// interval cost the regulation mode adds off the request hot path; it is
// captured in CI (BENCH_PR8) so regressions in the tick are as visible
// as regressions in /txn.
func BenchmarkTickSLO(b *testing.B) {
	store := kv.NewStoreShards(1024, 0)
	s, err := New(Config{
		Controller:   core.NewStatic(64),
		Engine:       NewOCC(store),
		Items:        store.Size(),
		Interval:     time.Hour, // ticks driven by the benchmark loop
		Seed:         1,
		ClassControl: "slo",
		Classes: []ClassConfig{
			{Name: "interactive", Weight: 3, SLOTarget: 0.100},
			{Name: "readonly", Weight: 2, Priority: 1, Shape: "query", SLOTarget: 0.200},
			{Name: "batch", Weight: 1, Priority: 2, Shape: "update", K: 16},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	// Warm the histograms so the quantile scans walk real counts.
	for _, params := range []string{"?class=interactive&k=2", "?class=readonly&k=4", "?class=batch"} {
		for i := 0; i < 128; i++ {
			req := httptest.NewRequest(http.MethodPost, "/txn"+params, nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
	}
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.tick(start.Add(time.Duration(i) * time.Millisecond))
	}
}
