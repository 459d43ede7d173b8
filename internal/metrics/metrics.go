// Package metrics holds the measurement machinery only the simulator and
// experiment harness need: time series containers and the
// measurement-length rule of §5 (estimate throughput to a target accuracy
// at a confidence level, after Heiss 1988). The streaming accumulators
// (Welford, TimeWeighted, FixedHistogram) live in internal/telemetry, the
// repository's single shared "sense" layer.
package metrics

import (
	"math"
	"sort"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Point is one (time, value) observation.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series.
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
	var w telemetry.Welford
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

// Autocorr1 returns the lag-1 autocorrelation of xs (0 when undefined).
// Positively autocorrelated departure counts need longer measurement
// intervals (§5).
func Autocorr1(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, x := range xs {
		den += (x - mean) * (x - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// RequiredDepartures returns how many departures a throughput estimate must
// span so that the relative error of the interval-throughput estimator is
// at most relErr at the given normal quantile z (e.g. 1.96 for 95%),
// assuming the departure process is roughly Poisson-like with coefficient
// of variation cv of the inter-departure times. This is the §5 rule
// ("rather hundreds of departures than some tens"): n >= (z*cv/relErr)².
func RequiredDepartures(cv, relErr, z float64) int {
	if relErr <= 0 {
		return math.MaxInt32
	}
	if cv <= 0 {
		cv = 1 // Poisson default
	}
	n := (z * cv / relErr) * (z * cv / relErr)
	if n < 1 {
		return 1
	}
	return int(math.Ceil(n))
}

// SuggestInterval converts a required departure count into a measurement
// interval length given the currently observed throughput (departures/s),
// clamped to [minLen, maxLen]. It implements the stability/responsiveness
// balance of §5: no longer than needed to filter noise.
func SuggestInterval(throughput float64, needed int, minLen, maxLen float64) float64 {
	if throughput <= 0 {
		return maxLen
	}
	dt := float64(needed) / throughput
	if dt < minLen {
		return minLen
	}
	if dt > maxLen {
		return maxLen
	}
	return dt
}
