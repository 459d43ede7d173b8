package plot

import (
	"math"
	"strings"
	"testing"

	"github.com/tpctl/loadctl/internal/telemetry"
)

func makeSeries(name string, n int, f func(i int) float64) telemetry.Series {
	s := telemetry.Series{Name: name}
	for i := 0; i < n; i++ {
		s.Add(float64(i), f(i))
	}
	return s
}

func TestChartRendersAllSeries(t *testing.T) {
	c := NewChart("title")
	c.AddSeries(makeSeries("a", 20, func(i int) float64 { return float64(i) }))
	c.AddSeries(makeSeries("b", 20, func(i int) float64 { return float64(20 - i) }))
	out := c.String()
	if !strings.Contains(out, "title") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "* a") || !strings.Contains(out, "+ b") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("missing markers")
	}
}

func TestChartEmptyData(t *testing.T) {
	c := NewChart("empty")
	out := c.String()
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart should say so, got %q", out)
	}
}

func TestChartIgnoresNonFinite(t *testing.T) {
	s := telemetry.Series{Name: "bad"}
	s.Add(0, math.NaN())
	s.Add(1, math.Inf(1))
	s.Add(2, 5)
	c := NewChart("x")
	c.AddSeries(s)
	out := c.String()
	if strings.Contains(out, "no data") {
		t.Fatal("finite point should render")
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := NewChart("flat")
	c.AddSeries(makeSeries("f", 5, func(int) float64 { return 3 }))
	if out := c.String(); !strings.Contains(out, "*") {
		t.Fatalf("flat series invisible:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	a := makeSeries("alpha", 3, func(i int) float64 { return float64(i * 2) })
	c := makeSeries("beta", 3, func(i int) float64 { return float64(i * 3) })
	if err := WriteCSV(&b, a, c); err != nil {
		t.Fatal(err)
	}
	want := "time,alpha,beta\n0,0,0\n1,2,3\n2,4,6\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestWriteCSVLengthMismatch(t *testing.T) {
	var b strings.Builder
	a := makeSeries("a", 3, func(i int) float64 { return 0 })
	c := makeSeries("b", 2, func(i int) float64 { return 0 })
	if err := WriteCSV(&b, a, c); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := WriteCSV(&b); err == nil {
		t.Fatal("expected no-series error")
	}
}

func TestTable(t *testing.T) {
	tbl := &Table{Header: []string{"name", "value"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer-name", 22)
	out := tbl.String()
	if !strings.Contains(out, "longer-name") || !strings.Contains(out, "1.50") {
		t.Fatalf("table malformed:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("table has %d lines", len(lines))
	}
	width := len(lines[0])
	for _, l := range lines {
		if len(l) != width {
			t.Fatalf("ragged table:\n%s", out)
		}
	}
}

func TestSparkLine(t *testing.T) {
	s := SparkLine([]float64{0, 1, 2, 3})
	if s == "" || len([]rune(s)) != 4 {
		t.Fatalf("sparkline = %q", s)
	}
	if SparkLine(nil) != "" {
		t.Fatal("empty input should give empty sparkline")
	}
	flat := SparkLine([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

func TestArgMax(t *testing.T) {
	x, y := ArgMax([]float64{1, 2, 3}, []float64{5, 9, 2})
	if x != 2 || y != 9 {
		t.Fatalf("argmax = (%v, %v)", x, y)
	}
	if x, _ := ArgMax(nil, nil); !math.IsNaN(x) {
		t.Fatal("empty argmax should be NaN")
	}
	if x, _ := ArgMax([]float64{1}, []float64{1, 2}); !math.IsNaN(x) {
		t.Fatal("mismatched argmax should be NaN")
	}
}

func TestSortPointsByT(t *testing.T) {
	pts := []telemetry.Point{{T: 3, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}}
	SortPointsByT(pts)
	if pts[0].T != 1 || pts[1].T != 2 || pts[2].T != 3 {
		t.Fatalf("not sorted: %v", pts)
	}
}
