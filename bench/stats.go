package main

import (
	"math"
	"slices"
)

// sample is one timed request. The harness keeps every sample raw, at the
// clock's nanosecond resolution: internal/loadgen's histogram has 1 ms
// buckets and reads p50 = p95 = p99 = 0.5 ms for anything on loopback.
type sample struct {
	id     uint64 // trace ID the client minted (traced runs only)
	start  int64  // ns since phase start: send time (closed loop) or due time (open loop)
	lat    int64  // ns from start until the response body was read to EOF
	lag    int64  // open loop only: ns the send started after its due time
	kind   uint8  // index into the workload's request kinds
	status uint16 // HTTP status; 0 is a transport error
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted (0 for no samples).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tailQuantile is quantile lowered, when the sample is too small, to the
// highest percentile that still has tailBeyond samples beyond it (and never
// below the median). It returns the percentile actually used.
func tailQuantile(sorted []int64, q float64) (int64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, q
	}
	i := min(int(math.Ceil(q*float64(n)))-1, n-1-tailBeyond)
	i = max(i, (n-1)/2)
	return sorted[i], float64(i+1) / float64(n)
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spread -repeat prints is the one the acceptance rule computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
