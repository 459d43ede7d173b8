package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/cluster"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/kv"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// Probes: single layers timed in this process through their public
// functions with testing.Benchmark, with no network around them. They say
// what a layer costs on its own; the traced run says what it costs inside a
// request.

// discardWriter is the minimal reusable http.ResponseWriter, as in the
// repo's own handler benchmarks: it measures the handler, not a recorder.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// probeTxn times the /txn handler at k=4 with the given request-trace
// sampling period (0 is the product default).
func probeTxn(sampleEvery int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		store := kv.NewStoreShards(storeItems, 0)
		s, err := server.New(server.Config{
			Controller: core.NewStatic(1 << 20),
			Engine:     server.NewOCC(store),
			Items:      storeItems,
			Interval:   time.Hour,
			Seed:       1,
			ReqTrace:   reqtrace.Config{SampleEvery: sampleEvery},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		req := httptest.NewRequest(http.MethodPost, "/txn?shape=update&k=4", nil)
		w := &discardWriter{header: make(http.Header)}
		b.ReportAllocs()
		for b.Loop() {
			h.ServeHTTP(w, req)
		}
		if w.code != http.StatusOK {
			b.Fatalf("/txn answered %d", w.code)
		}
	})
}

// cannedBackend answers every relay in-process like a healthy idle
// backend, so the proxy's own pick-and-relay path is all that is timed.
type cannedBackend struct{ header string }

func (t cannedBackend) RoundTrip(*http.Request) (*http.Response, error) {
	h := make(http.Header, 2)
	h.Set("Content-Type", "application/json")
	h.Set(loadsig.Header, t.header)
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     h,
		Body:       io.NopCloser(bytes.NewReader([]byte(`{"status":"committed","class":"update","attempts":1}`))),
	}, nil
}

func probeRelay() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		sig := loadsig.Signal{Status: loadsig.StatusOK, Limit: 64, Active: 1, Util: 1.0 / 64}
		p, err := cluster.New(cluster.Config{
			Backends:  []string{"http://b0:1", "http://b1:1"},
			Policy:    "threshold",
			Transport: cannedBackend{sig.Encode()},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		h := p.Handler()
		req := httptest.NewRequest(http.MethodPost, "/txn?shape=update&k=4", nil)
		w := &discardWriter{header: make(http.Header)}
		b.ReportAllocs()
		for b.Loop() {
			h.ServeHTTP(w, req)
		}
		if w.code != http.StatusOK {
			b.Fatalf("relay answered %d", w.code)
		}
	})
}

func oneClassGate(b *testing.B, limit float64) *gate.Multi {
	m, err := gate.NewMulti([]gate.ClassSpec{{Name: "default"}}, limit)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// probeGateFast is the uncontended admission every workload but
// direct-gated takes.
func probeGateFast() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		m := oneClassGate(b, 64)
		for b.Loop() {
			if !m.AcquireFast(0) {
				b.Fatal("uncontended AcquireFast refused")
			}
			m.Release(0)
		}
	})
}

// probeGateHandoff is the contended path: two goroutines take turns on a
// limit of one, so an acquire often has to queue and be handed the slot.
func probeGateHandoff() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		m := oneClassGate(b, 1)
		ctx := context.Background()
		cycle := func() {
			if err := m.Acquire(ctx, 0); err != nil {
				b.Error(err)
			}
			m.Release(0)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					cycle()
				}
			}
		}()
		for b.Loop() {
			cycle()
		}
		close(stop)
		<-done
	})
}

// probeCommit times one k-item read-modify-write transaction on the store.
func probeCommit(k int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		store := kv.NewStoreShards(storeItems, 0)
		rng := rand.New(rand.NewPCG(1, uint64(k)))
		sets := make([][]int, 64)
		for i := range sets {
			sets[i] = rng.Perm(storeItems)[:k]
		}
		i := 0
		for b.Loop() {
			txn := store.BeginPooled()
			for _, key := range sets[i%len(sets)] {
				txn.Set(key, txn.Get(key)+1)
			}
			if err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
			txn.Release()
			i++
		}
	})
}

// probePAUpdate times one interval of the paper's parabola controller.
func probePAUpdate() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		pa := core.NewPA(core.DefaultPAConfig())
		i := 0
		for b.Loop() {
			n := float64(8 + i%23)
			pa.Update(core.Sample{Time: float64(i), Load: n, Perf: n * (60 - n), Throughput: n * (60 - n), Completions: 100})
			i++
		}
	})
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// probeMetrics runs every probe for benchtime each.
func probeMetrics(benchtime time.Duration) ([]metric, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	txn, relay := probeTxn(0), probeRelay()
	traceAll, traceTail := probeTxn(1), probeTxn(-1)
	ms := []metric{
		{"server.txn_ns_per_op", nsPerOp(txn), "ns/op"},
		{"server.txn_allocs_per_op", float64(txn.AllocsPerOp()), "allocs/op"},
		{"cluster.relay_ns_per_op", nsPerOp(relay), "ns/op"},
		{"cluster.relay_allocs_per_op", float64(relay.AllocsPerOp()), "allocs/op"},
		{"gate.fast_ns_per_op", nsPerOp(probeGateFast()), "ns/op"},
		{"gate.handoff_ns_per_op", nsPerOp(probeGateHandoff()), "ns/op"},
		{"kv.commit_ns_per_op.k4", nsPerOp(probeCommit(4)), "ns/op"},
		{"kv.commit_ns_per_op.k512", nsPerOp(probeCommit(512)), "ns/op"},
		// What tracing every request costs the handler over tracing only
		// the failed and slowest ones: the price tag of always-on spans.
		{"reqtrace.txn_delta_ns", nsPerOp(traceAll) - nsPerOp(traceTail), "ns"},
		{"core.pa_update_ns_per_op", nsPerOp(probePAUpdate()), "ns/op"},
	}
	// A probe that called b.Fatal comes back as the zero result.
	for _, r := range []testing.BenchmarkResult{txn, relay, traceAll, traceTail} {
		if r.N == 0 {
			return nil, errors.New("a handler probe failed")
		}
	}
	return ms, nil
}
