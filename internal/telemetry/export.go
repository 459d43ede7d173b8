package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WriteJSON renders v as indented JSON with the given status code. The
// document is encoded before anything is written, so a value that cannot
// be encoded answers 500 with the reason instead of 200 with no body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := EncodeJSON(v)
	if err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// EncodeJSON renders v as indented JSON.
func EncodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// PromFloat renders a float in Prometheus text format (+Inf for an
// uncontrolled gate).
func PromFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromText accumulates the Prometheus text exposition format: plain
// gauges/counters and single-label families ("vectors") with one
// HELP/TYPE header and one sample per label value.
type PromText struct {
	b strings.Builder
}

// Gauge emits one unlabeled gauge.
func (p *PromText) Gauge(name, help string, v float64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, PromFloat(v))
}

// Counter emits one unlabeled counter.
func (p *PromText) Counter(name, help string, v uint64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// GaugeVec emits one gauge family labeled by label; emit is called once
// and adds each (label value, sample) row.
func (p *PromText) GaugeVec(name, help, label string, emit func(sample func(value string, v float64))) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	emit(func(value string, v float64) {
		fmt.Fprintf(&p.b, "%s{%s=%q} %s\n", name, label, value, PromFloat(v))
	})
}

// CounterVec emits one counter family labeled by label.
func (p *PromText) CounterVec(name, help, label string, emit func(sample func(value string, v uint64))) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	emit(func(value string, v uint64) {
		fmt.Fprintf(&p.b, "%s{%s=%q} %d\n", name, label, value, v)
	})
}

// Histogram emits one cumulative Prometheus histogram from a telemetry
// bucket snapshot. The 64 quarter-log2 buckets are coarsened to one `le`
// edge per power of two (HistBase·2^(j+1) for j = 0..15) so the exposition
// stays readable; `+Inf` and `_count` are the bucket total, `_sum` the
// supplied sum of observations.
func (p *PromText) Histogram(name, help string, c HistCounts, sum float64) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for j := 0; j < HistBuckets/4; j++ {
		for k := 0; k < 4; k++ {
			cum += c[4*j+k]
		}
		le := HistBase * math.Pow(2, float64(j+1))
		fmt.Fprintf(&p.b, "%s_bucket{le=%q} %d\n", name, PromFloat(le), cum)
	}
	fmt.Fprintf(&p.b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(&p.b, "%s_sum %s\n%s_count %d\n", name, PromFloat(sum), name, cum)
}

// String returns the accumulated exposition text.
func (p *PromText) String() string { return p.b.String() }

// ParsePromText parses exposition text produced by PromText back into a
// map keyed by the sample line's name-with-labels (e.g. "loadctl_limit"
// or `loadctl_class_limit{class="batch"}`). It understands exactly the
// subset PromText emits; the golden export tests use it to assert the
// Prometheus and JSON forms of one snapshot agree value-for-value.
func ParsePromText(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64) // accepts "+Inf" too
		if err != nil {
			continue
		}
		out[key] = f
	}
	return out
}

// MetricsEndpoint implements the dual-format /metrics contract shared by
// loadctld and loadctlproxy:
//
//   - the default (no format parameter) is Prometheus text;
//   - format=json selects the JSON snapshot;
//   - unknown format values are 400;
//   - with HistoryOK, history=1 additionally includes retained closed
//     intervals and is only meaningful for JSON — the text form has no
//     history representation, so history=1 without format=json is 400
//     rather than silently switching the content type.
type MetricsEndpoint struct {
	// Snapshot returns the JSON document (withHistory is only ever true
	// when HistoryOK is set).
	Snapshot func(withHistory bool) any
	// Prom renders the Prometheus text form.
	Prom func() *PromText
	// HistoryOK enables the history=1 parameter.
	HistoryOK bool
}

// ServeHTTP implements http.Handler.
func (e MetricsEndpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	withHistory := e.HistoryOK && q.Get("history") == "1"
	switch q.Get("format") {
	case "json":
		WriteJSON(w, http.StatusOK, e.Snapshot(withHistory))
		return
	case "":
		// Prometheus text, below.
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json, or omit for Prometheus text)", q.Get("format")), http.StatusBadRequest)
		return
	}
	if withHistory {
		http.Error(w, "history=1 requires format=json", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(e.Prom().String()))
}
