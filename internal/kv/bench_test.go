package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// Shard-scaling benchmarks: the same transaction mix against a 1-shard
// (single global lock, the pre-sharding baseline) and an N-shard store.
// Every benchmark has a serial variant — the honest 1-vCPU trajectory,
// comparable PR over PR — and a RunParallel variant, which is where
// shards=N can actually beat shards=1. Run the matrix with
//
//	go test -run '^$' -bench BenchmarkStore -cpu 1,2,4,8 ./internal/kv
//
// and compare shards=1 against shards=auto at the same -cpu.

const (
	benchItems = 4096
	benchK     = 8
)

var benchSeed atomic.Int64

// benchMixOnce runs one transaction of the mix through the pooled
// transaction lifecycle: read-only with probability queryFrac, else
// read-modify-write on every accessed item, retried until commit.
func benchMixOnce(s *Store, rng *rand.Rand, queryFrac float64) error {
	if rng.Float64() < queryFrac {
		txn := s.BeginPooled()
		for j := 0; j < benchK; j++ {
			txn.Get(rng.Intn(benchItems))
		}
		err := txn.Commit()
		txn.Release()
		return err
	}
	for {
		txn := s.BeginPooled()
		for j := 0; j < benchK; j++ {
			key := rng.Intn(benchItems)
			txn.Set(key, txn.Get(key)+1)
		}
		err := txn.Commit()
		txn.Release()
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
	}
}

func benchStore(b *testing.B, shards int, queryFrac float64, parallel bool) {
	s := NewStoreShards(benchItems, shards)
	b.ReportAllocs()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(benchSeed.Add(1)))
			for pb.Next() {
				if err := benchMixOnce(s, rng, queryFrac); err != nil {
					b.Error(err)
					return
				}
			}
		})
		return
	}
	rng := rand.New(rand.NewSource(benchSeed.Add(1)))
	for i := 0; i < b.N; i++ {
		if err := benchMixOnce(s, rng, queryFrac); err != nil {
			b.Fatal(err)
		}
	}
}

// benchShardCounts is fixed, not derived from GOMAXPROCS: benchmark
// names feed the committed-baseline diff (cmd/benchjson -baseline), so
// they must be identical on every machine that runs the suite.
func benchShardCounts() []int { return []int{1, 8} }

func benchVariants(b *testing.B, queryFrac float64) {
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d/serial", shards), func(b *testing.B) {
			benchStore(b, shards, queryFrac, false)
		})
		b.Run(fmt.Sprintf("shards=%d/parallel", shards), func(b *testing.B) {
			benchStore(b, shards, queryFrac, true)
		})
	}
}

// BenchmarkStoreReadHeavy is 95% read-only transactions — the regime
// where even the RWMutex baseline admits parallel readers but bounces one
// shared lock cache line.
func BenchmarkStoreReadHeavy(b *testing.B) { benchVariants(b, 0.95) }

// BenchmarkStoreUpdateHeavy is all read-modify-write transactions — the
// regime the single commit lock serializes completely.
func BenchmarkStoreUpdateHeavy(b *testing.B) { benchVariants(b, 0) }

// BenchmarkStoreUncontended measures per-transaction overhead with
// conflicts ruled out. The serial variant is the single-goroutine cost
// sharding adds (mask/shift plus the bitmask walk at commit); the
// parallel variant gives each goroutine a disjoint key stripe, so
// certification never fails and what remains is pure shard-lock
// parallelism.
func BenchmarkStoreUncontended(b *testing.B) {
	const stripeLen = 64 // benchItems/stripeLen goroutine stripes before wrap
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d/serial", shards), func(b *testing.B) {
			s := NewStoreShards(benchItems, shards)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				txn := s.BeginPooled()
				for j := 0; j < benchK; j++ {
					key := rng.Intn(benchItems)
					txn.Set(key, txn.Get(key)+1)
				}
				if err := txn.Commit(); err != nil {
					b.Fatal(err)
				}
				txn.Release()
			}
		})
		b.Run(fmt.Sprintf("shards=%d/parallel", shards), func(b *testing.B) {
			s := NewStoreShards(benchItems, shards)
			var nextStripe atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				stripe := int(nextStripe.Add(1)-1) * stripeLen % benchItems
				rng := rand.New(rand.NewSource(benchSeed.Add(1)))
				for pb.Next() {
					txn := s.BeginPooled()
					for j := 0; j < benchK; j++ {
						key := stripe + rng.Intn(stripeLen)
						txn.Set(key, txn.Get(key)+1)
					}
					if err := txn.Commit(); err != nil {
						b.Error(err)
						return
					}
					txn.Release()
				}
			})
		})
	}
}
