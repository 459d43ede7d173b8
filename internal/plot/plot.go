// Package plot renders time series as dependency-free ASCII line charts and
// CSV files, so every figure of the paper can be regenerated and inspected
// straight from a terminal or spreadsheet.
package plot

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// Chart is an ASCII chart of one or more series sharing axes.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot columns (default 72)
	Height int // plot rows (default 20)
	series []chartSeries
}

type chartSeries struct {
	name   string
	marker byte
	pts    []telemetry.Point
}

// NewChart returns an empty chart with the given title.
func NewChart(title string) *Chart {
	return &Chart{Title: title, Width: 72, Height: 20}
}

// markers cycles through distinguishable glyphs for successive series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Add attaches a series to the chart.
func (c *Chart) Add(name string, pts []telemetry.Point) *Chart {
	m := markers[len(c.series)%len(markers)]
	c.series = append(c.series, chartSeries{name: name, marker: m, pts: pts})
	return c
}

// AddSeries attaches a telemetry.Series.
func (c *Chart) AddSeries(s telemetry.Series) *Chart { return c.Add(s.Name, s.Points) }

// Render writes the chart to w.
func (c *Chart) Render(w io.Writer) {
	width, height := c.Width, c.Height
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range c.series {
		for _, p := range s.pts {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				continue
			}
			total++
			xmin = math.Min(xmin, p.T)
			xmax = math.Max(xmax, p.T)
			ymin = math.Min(ymin, p.V)
			ymax = math.Max(ymax, p.V)
		}
	}
	if total == 0 {
		fmt.Fprintf(w, "%s\n(no data)\n", c.Title)
		return
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	// Pad the y range slightly so extremes are visible.
	pad := (ymax - ymin) * 0.05
	ymin -= pad
	ymax += pad

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.series {
		for _, p := range s.pts {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				continue
			}
			col := int(float64(width-1) * (p.T - xmin) / (xmax - xmin))
			row := height - 1 - int(float64(height-1)*(p.V-ymin)/(ymax-ymin))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = s.marker
			}
		}
	}

	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	legend := make([]string, 0, len(c.series))
	for _, s := range c.series {
		legend = append(legend, fmt.Sprintf("%c %s", s.marker, s.name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(w, "  [%s]\n", strings.Join(legend, "   "))
	}
	for i, row := range grid {
		label := ""
		switch i {
		case 0:
			label = fmt.Sprintf("%10.2f", ymax)
		case height - 1:
			label = fmt.Sprintf("%10.2f", ymin)
		default:
			label = strings.Repeat(" ", 10)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 10), strings.Repeat("-", width))
	fmt.Fprintf(w, "%s  %-12.6g%s%12.6g\n", strings.Repeat(" ", 10), xmin,
		strings.Repeat(" ", maxInt(1, width-24)), xmax)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(w, "%s  x: %s   y: %s\n", strings.Repeat(" ", 10), c.XLabel, c.YLabel)
	}
}

// String renders the chart to a string.
func (c *Chart) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// WriteCSV writes aligned series as CSV: the first column is the time of the
// first series; every series contributes one value column. Series must have
// equal lengths (typical for per-interval outputs of one run); it returns an
// error otherwise.
func WriteCSV(w io.Writer, series ...telemetry.Series) error {
	if len(series) == 0 {
		return fmt.Errorf("plot: no series")
	}
	n := series[0].Len()
	for _, s := range series {
		if s.Len() != n {
			return fmt.Errorf("plot: series %q has %d points, want %d", s.Name, s.Len(), n)
		}
	}
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, "time")
	for _, s := range series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", series[0].Points[i].T))
		for _, s := range series {
			row = append(row, fmt.Sprintf("%g", s.Points[i].V))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table renders a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[minInt(i, len(widths)-1)], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SparkLine renders values as a compact one-line sparkline (for summaries).
func SparkLine(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	for _, v := range vals {
		idx := int(float64(len(glyphs)-1) * (v - lo) / (hi - lo))
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// ArgMax returns the x whose y is largest among (xs, ys) pairs.
func ArgMax(xs, ys []float64) (x, y float64) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return math.NaN(), math.NaN()
	}
	idx := 0
	for i := range ys {
		if ys[i] > ys[idx] {
			idx = i
		}
	}
	return xs[idx], ys[idx]
}

// SortPointsByT sorts points in place by time (sweeps are built
// concurrently and may complete out of order).
func SortPointsByT(pts []telemetry.Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
}
