package telemetry

import (
	"math"
	"sync/atomic"
)

// Histogram layout: bucket i spans a quarter power of two starting at
// HistBase, so quantiles are accurate to about ±10% — plenty for a p95
// gauge — with a single atomic add on the hot path.
const (
	// HistBuckets is the fixed bucket count; with HistBase = 50µs the
	// quarter-log2 buckets reach ~3276s before clamping into the last one.
	HistBuckets = 64
	// HistBase is the upper edge of bucket 0 in seconds.
	HistBase = 50e-6
)

// Histogram is a lock-free log-bucketed latency histogram. The zero value
// is ready to use. Reads race benignly with writers: a sample can land in
// a bucket after the count was read, skewing a quantile by at most one
// bucket.
//
//loadctl:atomiccell
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
}

// BucketIndex returns the bucket Observe files a latency (in seconds)
// into. Exported so other latency records — notably the per-request traces
// of internal/reqtrace, which reuse the histogram's exact sample as their
// wall time — can be reconciled against histogram contents bucket by
// bucket.
//
//loadctl:hotpath
func BucketIndex(seconds float64) int {
	if seconds <= HistBase {
		return 0
	}
	idx := int(4 * math.Log2(seconds/HistBase))
	if idx < 0 {
		return 0
	}
	if idx >= HistBuckets {
		return HistBuckets - 1
	}
	return idx
}

// Observe records one latency in seconds. Values at or below HistBase land
// in bucket 0; values beyond the last bucket clamp into it.
//
//loadctl:hotpath
func (h *Histogram) Observe(seconds float64) {
	h.buckets[BucketIndex(seconds)].Add(1)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Bucket returns the count in bucket i (0 for out-of-range i).
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= HistBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Quantile returns the geometric midpoint of the bucket holding the
// q-quantile (0 when empty).
func (h *Histogram) Quantile(q float64) float64 {
	return h.Counts().Quantile(q)
}

// HistCounts is one point-in-time reading of a histogram's buckets — a
// plain value, so interval folds can difference two readings and compute
// quantiles over just the samples that landed in between.
type HistCounts [HistBuckets]uint64

// Counts snapshots the bucket counters. Reads race benignly with writers
// exactly like Quantile does: a concurrent sample skews the snapshot by at
// most one observation.
func (h *Histogram) Counts() HistCounts {
	var c HistCounts
	for i := range c {
		c[i] = h.buckets[i].Load()
	}
	return c
}

// Sub returns the per-bucket delta cur − prev: the distribution of the
// observations recorded between the two snapshots. Buckets are monotone,
// so modular uint64 subtraction is exact.
func (c HistCounts) Sub(prev HistCounts) HistCounts {
	var d HistCounts
	for i := range d {
		d[i] = c[i] - prev[i]
	}
	return d
}

// Add returns the per-bucket sum c + o: the distribution of two
// histograms' observations together.
func (c HistCounts) Add(o HistCounts) HistCounts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// Quantile returns the geometric midpoint of the bucket holding the
// q-quantile of the counted observations (0 when empty).
func (c HistCounts) Quantile(q float64) float64 {
	var total uint64
	for _, n := range c {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range c {
		cum += n
		if cum >= target {
			return HistBase * math.Pow(2, (float64(i)+0.5)/4)
		}
	}
	return HistBase * math.Pow(2, float64(HistBuckets)/4)
}

// Quantiles is the standard p50/p95/p99 summary.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Summary reads the three standard quantiles in one pass-per-quantile.
func (h *Histogram) Summary() Quantiles {
	return Quantiles{
		P50: h.Quantile(0.50),
		P95: h.Quantile(0.95),
		P99: h.Quantile(0.99),
	}
}
