package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(w.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", w.Var(), 32.0/7.0)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 {
		t.Fatal("empty accumulator should be zero")
	}
	w.Add(3)
	if w.Var() != 0 {
		t.Fatal("single sample has zero variance")
	}
	if !math.IsInf(w.CI(1.96), 1) {
		t.Fatal("CI undefined for single sample")
	}
}

// Property: Welford matches the two-pass formulas.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		v := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Var()-v) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 2)  // 2 for [0,4)
	tw.Set(4, 10) // 10 for [4,6)
	got := tw.Mean(6)
	want := (2*4 + 10*2) / 6.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	if tw.Max() != 10 {
		t.Fatalf("max = %v", tw.Max())
	}
}

func TestTimeWeightedResetAt(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 100)
	tw.Set(10, 4)
	tw.ResetAt(10)
	tw.Set(12, 8)
	got := tw.Mean(14)
	want := (4*2 + 8*2) / 4.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean after reset = %v, want %v", got, want)
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tw TimeWeighted
	tw.Set(5, 1)
	tw.Set(4, 2)
}

func TestSeriesStats(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	if m := s.Max(); m.T != 9 || m.V != 81 {
		t.Fatalf("max = %+v", m)
	}
	// Mean of v for t >= 5: (25+36+49+64+81)/5 = 51
	if got := s.MeanAfter(5); math.Abs(got-51) > 1e-12 {
		t.Fatalf("MeanAfter = %v, want 51", got)
	}
}

func TestSeriesQuantile(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i), float64(i))
	}
	if q := s.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Fatalf("median = %v", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	var empty Series
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}
