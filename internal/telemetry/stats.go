package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// The streaming statistics below predate the striped machinery: they are
// the simulation-era single-writer accumulators and time series of the
// simulator and experiment harness. They live here so the repository has
// exactly one implementation of each.

// Welford accumulates streaming mean and variance without storing samples.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// CV returns the coefficient of variation (std/mean); 0 when mean is 0.
func (w *Welford) CV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Std() / math.Abs(w.mean)
}

// CI returns the half-width of the confidence interval for the mean at the
// given z quantile (e.g. 1.96 for 95%).
func (w *Welford) CI(z float64) float64 {
	if w.n < 2 {
		return math.Inf(1)
	}
	return z * w.Std() / math.Sqrt(float64(w.n))
}

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// TimeWeighted tracks the time average of a piecewise-constant signal, such
// as the number of active transactions n(t). It is the float-time,
// single-writer counterpart of the striped integrator in CloseInterval —
// the simulator senses through this, the serving tiers through Counters.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	area    float64
	started bool
	startT  float64
	max     float64
}

// Set records that the signal changed to v at time t. Calls must have
// non-decreasing t.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT = t
	} else {
		if t < tw.lastT {
			panic(fmt.Sprintf("telemetry: time went backwards %v < %v", t, tw.lastT))
		}
		tw.area += tw.lastV * (t - tw.lastT)
	}
	tw.lastT, tw.lastV = t, v
	if v > tw.max {
		tw.max = v
	}
}

// Mean returns the time average over [start, t].
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return tw.lastV
	}
	return (tw.area + tw.lastV*(t-tw.lastT)) / (t - tw.startT)
}

// Value returns the current value of the signal.
func (tw *TimeWeighted) Value() float64 { return tw.lastV }

// Max returns the maximum value seen.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// ResetAt restarts the averaging window at time t, keeping the current
// value (used at measurement-interval boundaries).
func (tw *TimeWeighted) ResetAt(t float64) {
	v := tw.lastV
	*tw = TimeWeighted{}
	tw.Set(t, v)
}

// FixedHistogram is a fixed-width bucket histogram over [Lo, Hi);
// out-of-range observations clamp into the edge buckets. Unlike Histogram
// it is single-writer (the simulator's collector), with a caller-chosen
// range.
type FixedHistogram struct {
	Lo, Hi  float64
	Buckets []uint64
	count   uint64
	sum     float64
}

// NewFixedHistogram returns a histogram with n buckets spanning [lo, hi).
func NewFixedHistogram(lo, hi float64, n int) *FixedHistogram {
	if n < 1 || hi <= lo {
		panic("telemetry: invalid histogram shape")
	}
	return &FixedHistogram{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}
}

// Add records an observation.
func (h *FixedHistogram) Add(v float64) {
	h.count++
	h.sum += v
	idx := int(float64(len(h.Buckets)) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Buckets) {
		idx = len(h.Buckets) - 1
	}
	h.Buckets[idx]++
}

// Count returns the number of observations.
func (h *FixedHistogram) Count() uint64 { return h.count }

// Mean returns the observation mean.
func (h *FixedHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an approximate q-quantile from the buckets.
func (h *FixedHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	var cum uint64
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			return h.Lo + width*(float64(i)+0.5)
		}
	}
	return h.Hi
}

// Point is one (time, value) observation.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series: the simulator's per-interval
// trajectories and the experiment harness's curves.
type Series struct {
	Name   string
	Points []Point
}

// Add appends an observation.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// MeanAfter returns the mean of values with T >= t0 (steady-state mean
// after discarding warm-up).
func (s *Series) MeanAfter(t0 float64) float64 {
	var w Welford
	for _, p := range s.Points {
		if p.T >= t0 {
			w.Add(p.V)
		}
	}
	return w.Mean()
}

// Max returns the maximum point (zero Point for an empty series).
func (s *Series) Max() Point {
	var best Point
	found := false
	for _, p := range s.Points {
		if !found || p.V > best.V {
			best = p
			found = true
		}
	}
	return best
}

// Quantile returns the q-quantile (0..1) of the values.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	vals := s.Values()
	sort.Float64s(vals)
	idx := q * float64(len(vals)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return vals[lo]
	}
	frac := idx - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}
