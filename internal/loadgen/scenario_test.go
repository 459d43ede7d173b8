package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseScenarioValid(t *testing.T) {
	data := []byte(`{
		"name": "all-kinds",
		"duration_seconds": 12,
		"seed": 7,
		"items": 1024,
		"streams": [
			{"class": "interactive", "mode": "closed", "clients": 8, "think_ms": 20,
			 "k": {"kind": "sin", "mean": 8, "amp": 4, "period": 10},
			 "query_frac": {"kind": "ramp", "start": 2, "dur": 4, "before": 0, "after": 1}},
			{"class": "batch", "mode": "open",
			 "rate": {"kind": "burst", "value": 50, "mult": 10, "at": 4, "dur": 2},
			 "start_seconds": 1, "stop_seconds": 11,
			 "hotspot": {"span_frac": 0.1, "shift_seconds": 3},
			 "retry": {"max": 2, "backoff_ms": 10, "on": ["rejected", "aborted"]}},
			{"name": "steps", "mode": "open",
			 "rate": {"kind": "step", "times": [0, 5, 10], "vals": [10, 100, 10], "lo": 0, "hi": 80}}
		]
	}`)
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	if sc.Name != "all-kinds" || len(sc.Streams) != 3 {
		t.Fatalf("parsed %+v", sc)
	}
	// Defaults were applied.
	if sc.Streams[0].MaxInFlight != 4096 || sc.Streams[0].Name != "interactive" {
		t.Fatalf("defaults missing: %+v", sc.Streams[0])
	}
	// The clamped step schedule respects lo/hi.
	s, err := sc.Streams[2].Rate.Build()
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Value(6); v != 80 {
		t.Fatalf("clamped step at t=6 = %g, want 80", v)
	}
	// Burst = base outside the window, base*mult inside.
	b, _ := sc.Streams[1].Rate.Build()
	if b.Value(3) != 50 || b.Value(5) != 500 || b.Value(7) != 50 {
		t.Fatalf("burst values: %g/%g/%g", b.Value(3), b.Value(5), b.Value(7))
	}
}

// TestParseScenarioErrors is the table-driven sweep over malformed
// scenario files: every one must fail with a message naming the problem.
func TestParseScenarioErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"not json", `{"name": `, "scenario:"},
		{"trailing data", `{"streams":[{"mode":"closed"}]} trailing`, "trailing data"},
		{"unknown field", `{"streems": []}`, "unknown field"},
		{"no streams", `{"name": "x", "streams": []}`, "at least one stream"},
		{"negative duration", `{"duration_seconds": -1, "streams": [{"mode":"closed"}]}`, "duration_seconds"},
		{"bad mode", `{"streams": [{"mode": "sideways"}]}`, "bad mode"},
		{"open without rate", `{"streams": [{"mode": "open"}]}`, "needs a rate schedule"},
		{"bad shape", `{"streams": [{"mode": "closed", "shape": "triangle"}]}`, "bad shape"},
		{"bad schedule kind", `{"streams": [{"mode": "open", "rate": {"kind": "zigzag"}}]}`, "unknown schedule kind"},
		{"sin without period", `{"streams": [{"mode": "open", "rate": {"kind": "sin", "mean": 5}}]}`, "period"},
		{"step mismatched", `{"streams": [{"mode": "open", "rate": {"kind": "step", "times": [0, 1], "vals": [1]}}]}`, "step schedule"},
		{"step unsorted", `{"streams": [{"mode": "open", "rate": {"kind": "step", "times": [5, 1], "vals": [1, 2]}}]}`, "ascending"},
		{"burst without dur", `{"streams": [{"mode": "open", "rate": {"kind": "burst", "value": 5}}]}`, "burst"},
		{"burst negative at", `{"streams": [{"mode": "open", "rate": {"kind": "burst", "value": 5, "mult": 2, "at": -5, "dur": 10}}]}`, "at >= 0"},
		{"hotspot span", `{"streams": [{"mode": "closed", "hotspot": {"span_frac": 1.5}}]}`, "span_frac"},
		{"retry trigger", `{"streams": [{"mode": "closed", "retry": {"max": 1, "on": ["teapot"]}}]}`, "retry trigger"},
		{"negative think", `{"streams": [{"mode": "closed", "think_ms": -5}]}`, "think_ms"},
		{"inverted window", `{"streams": [{"mode": "closed", "start_seconds": 9, "stop_seconds": 3}]}`, "active window"},
		{"duplicate names", `{"streams": [{"name":"a","mode":"closed"},{"name":"a","mode":"closed"}]}`, "duplicate stream name"},
		{"inverted clamp", `{"streams": [{"mode": "open", "rate": {"kind": "const", "value": 5, "lo": 9, "hi": 1}}]}`, "clamp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.data))
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestBuiltinScenariosValid(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 5 {
		t.Fatalf("only %d builtin scenarios: %v", len(names), names)
	}
	for _, n := range names {
		sc, err := Builtin(n)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", n, err)
		}
		// Builtins must also survive a JSON round trip — they are the
		// documented file format.
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("marshal %q: %v", n, err)
		}
		if _, err := ParseScenario(data); err != nil {
			t.Fatalf("builtin %q does not round-trip: %v", n, err)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Fatal("unknown builtin must error")
	}
}

// TestRunScenarioSmoke runs a two-stream scenario against a stub /txn
// endpoint and checks that the per-stream reports reconcile and carry
// the streams' class tags through to the server.
func TestRunScenarioSmoke(t *testing.T) {
	classes := make(chan string, 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case classes <- r.URL.Query().Get("class"):
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"committed"}`))
	}))
	defer srv.Close()

	sc := &Scenario{
		Name:            "smoke",
		DurationSeconds: 0.4,
		Streams: []StreamConfig{
			{Class: "interactive", Mode: "closed", Clients: 4, ThinkMS: 1},
			{Class: "batch", Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: 200}},
		},
	}
	rep, err := RunScenario(context.Background(), sc, ScenarioOptions{URLs: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Streams) != 2 {
		t.Fatalf("stream reports: %d", len(rep.Streams))
	}
	var total uint64
	for _, s := range rep.Streams {
		if s.Sent == 0 {
			t.Fatalf("stream %s sent nothing", s.Name)
		}
		if got := s.Committed + s.Rejected + s.Timeouts + s.Aborted + s.Errors + s.Unresolved; got != s.Sent {
			t.Fatalf("stream %s does not reconcile: sent=%d outcomes=%d", s.Name, s.Sent, got)
		}
		total += s.Sent
	}
	if rep.Total.Sent != total {
		t.Fatalf("total sent %d != Σ streams %d", rep.Total.Sent, total)
	}
	// Close the server first: it waits for in-flight handlers, so no late
	// request can race the channel close below (an open-loop stream may
	// have abandoned requests still executing when RunScenario returns).
	srv.Close()
	seen := map[string]bool{}
	close(classes)
	for c := range classes {
		seen[c] = true
	}
	if !seen["interactive"] || !seen["batch"] {
		t.Fatalf("class tags did not reach the server: %v", seen)
	}
}

// TestRunScenarioWindow checks that start/stop windows gate traffic.
func TestRunScenarioWindow(t *testing.T) {
	var early, late atomic.Int64
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) < 200*time.Millisecond {
			early.Add(1)
		} else {
			late.Add(1)
		}
		_, _ = w.Write([]byte(`{"status":"committed"}`))
	}))
	defer srv.Close()

	sc := &Scenario{
		Name:            "window",
		DurationSeconds: 0.5,
		Streams: []StreamConfig{{
			Class: "batch", Mode: "open",
			Rate:         &ScheduleJSON{Kind: "const", Value: 400},
			StartSeconds: 0.25,
		}},
	}
	if _, err := RunScenario(context.Background(), sc, ScenarioOptions{URLs: []string{srv.URL}}); err != nil {
		t.Fatal(err)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d requests arrived before the stream's start window", n)
	}
	if late.Load() == 0 {
		t.Fatal("no requests arrived inside the window")
	}
}

func TestClusterStanzaValidation(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:            "c",
			DurationSeconds: 1,
			Streams: []StreamConfig{{
				Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: 10},
			}},
		}
	}
	cases := []struct {
		name string
		ev   ClusterEvent
	}{
		{"unknown action", ClusterEvent{Action: "explode", AtSeconds: 1}},
		{"negative time", ClusterEvent{Action: "kill", AtSeconds: -1}},
		{"negative backend", ClusterEvent{Action: "kill", Backend: -1}},
		{"negative factor", ClusterEvent{Action: "slow", Factor: -2}},
	}
	for _, tc := range cases {
		sc := base()
		sc.Cluster = &ClusterConfig{Events: []ClusterEvent{tc.ev}}
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	// A slow event with no factor defaults to 1 (restore full speed).
	sc := base()
	sc.Cluster = &ClusterConfig{Events: []ClusterEvent{{Action: "slow", AtSeconds: 0.5}}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := sc.Cluster.Events[0].Factor; got != 1 {
		t.Fatalf("slow factor default = %g, want 1", got)
	}
}

func TestRunScenarioClusterNeedsActuator(t *testing.T) {
	sc := &Scenario{
		Name:            "faulty",
		DurationSeconds: 0.2,
		Streams: []StreamConfig{{
			Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: 10},
		}},
		Cluster: &ClusterConfig{Events: []ClusterEvent{{Action: "kill", AtSeconds: 0.1}}},
	}
	_, err := RunScenario(context.Background(), sc, ScenarioOptions{URLs: []string{"http://127.0.0.1:1"}})
	if err == nil {
		t.Fatal("cluster events without an actuator: want error, got nil")
	}
}

// recordingActuator books applied events with their wall-clock offsets.
type recordingActuator struct {
	mu     sync.Mutex
	events []ClusterEvent
	at     []time.Duration
	start  time.Time
}

func (a *recordingActuator) Apply(_ context.Context, ev ClusterEvent) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events = append(a.events, ev)
	a.at = append(a.at, time.Since(a.start))
	return nil
}

func TestRunScenarioClusterEventsApplied(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"status":"committed"}`))
	}))
	defer srv.Close()

	sc := &Scenario{
		Name:            "faults",
		DurationSeconds: 0.6,
		Streams: []StreamConfig{{
			Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: 50},
		}},
		Cluster: &ClusterConfig{Events: []ClusterEvent{
			// Deliberately out of order in the file; execution sorts.
			{Action: "restart", Backend: 1, AtSeconds: 0.3},
			{Action: "kill", Backend: 1, AtSeconds: 0.1},
			{Action: "slow", Backend: 0, AtSeconds: 0.2, Factor: 4},
		}},
	}
	act := &recordingActuator{start: time.Now()}
	rep, err := RunScenario(context.Background(), sc, ScenarioOptions{
		URLs: []string{srv.URL}, Actuator: act,
	})
	if err != nil {
		t.Fatal(err)
	}
	act.mu.Lock()
	defer act.mu.Unlock()
	if len(act.events) != 3 {
		t.Fatalf("applied %d events, want 3 (%v)", len(act.events), act.events)
	}
	wantOrder := []string{"kill", "slow", "restart"}
	for i, ev := range act.events {
		if ev.Action != wantOrder[i] {
			t.Fatalf("event %d = %s, want %s (events sorted by time)", i, ev.Action, wantOrder[i])
		}
		if act.at[i] < time.Duration(ev.AtSeconds*float64(time.Second))-10*time.Millisecond {
			t.Fatalf("event %d fired at %s, before its scheduled %gs", i, act.at[i], ev.AtSeconds)
		}
	}
	if len(rep.Cluster) != 3 {
		t.Fatalf("report cluster log has %d lines, want 3: %v", len(rep.Cluster), rep.Cluster)
	}
	if !strings.Contains(rep.Cluster[0], "kill backend 1") {
		t.Fatalf("cluster log line 0 = %q", rep.Cluster[0])
	}
}

func TestScenarioSpreadsOverTargets(t *testing.T) {
	var hits [2]atomic.Uint64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			hits[i].Add(1)
			_, _ = w.Write([]byte(`{"status":"committed"}`))
		}))
	}
	s0, s1 := mk(0), mk(1)
	defer s0.Close()
	defer s1.Close()

	sc := &Scenario{
		Name:            "spread",
		DurationSeconds: 0.5,
		Streams: []StreamConfig{
			{Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: 200}},
			{Mode: "closed", Clients: 8, ThinkMS: 5},
		},
	}
	if _, err := RunScenario(context.Background(), sc, ScenarioOptions{
		URLs: []string{s0.URL, s1.URL},
	}); err != nil {
		t.Fatal(err)
	}
	if hits[0].Load() == 0 || hits[1].Load() == 0 {
		t.Fatalf("load not spread: %d / %d", hits[0].Load(), hits[1].Load())
	}
}

// TestScenarioStreamKeepsSchedule holds an open scenario stream to its
// arrival schedule: at 2000 tx/s every gap is sub-millisecond, so a pacer
// that re-anchors each gap to its wake-up time loses the timer's slack on
// every arrival and sends far fewer requests than scheduled. Arrivals fired
// late are timed from their intended slots, so the corrected tail can
// never read below the raw one.
func TestScenarioStreamKeepsSchedule(t *testing.T) {
	ts := httptest.NewServer((&stubServer{}).handler())
	defer ts.Close()

	rate, secs := 2000.0, 1.0
	if raceEnabled {
		// One race-instrumented CPU cannot serve 2000 loopback requests a
		// second, however they are paced. 1000/s still has sub-millisecond
		// gaps, on which a re-anchoring pacer sends about two thirds.
		rate = 1000
	}
	sc := &Scenario{
		Name:            "schedule",
		DurationSeconds: secs,
		Streams: []StreamConfig{{
			Mode: "open", Rate: &ScheduleJSON{Kind: "const", Value: rate},
		}},
	}
	rep, err := RunScenario(context.Background(), sc, ScenarioOptions{URLs: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.9 * rate * secs; float64(rep.Total.Sent) < want {
		t.Fatalf("open stream sent %d of %.0f scheduled arrivals, want at least %.0f",
			rep.Total.Sent, rate*secs, want)
	}
	if rep.Total.LatP99 < rep.Total.LatRawP99 {
		t.Fatalf("corrected p99 %.3fms below raw p99 %.3fms", 1e3*rep.Total.LatP99, 1e3*rep.Total.LatRawP99)
	}
}
