package cluster

import (
	"fmt"
	"testing"

	"github.com/tpctl/loadctl/internal/telemetry"
)

// assertProxyExportsAgree renders one proxy snapshot both ways and checks
// every Prometheus sample against the JSON field it mirrors.
func assertProxyExportsAgree(t *testing.T, p *Proxy) {
	t.Helper()
	snap := p.SnapshotNow()
	vals := telemetry.ParsePromText(renderProm(snap).String())

	check := func(key string, want float64) {
		t.Helper()
		got, ok := vals[key]
		if !ok {
			t.Fatalf("Prometheus text is missing %s", key)
		}
		if got != want {
			t.Fatalf("%s: prom %v != json %v", key, got, want)
		}
	}
	check("loadctlproxy_requests_total", float64(snap.Totals.Requests))
	check("loadctlproxy_relayed_total", float64(snap.Totals.Relayed))
	check("loadctlproxy_fast_rejected_overload_total", float64(snap.Totals.FastRejectedOverload))
	check("loadctlproxy_fast_rejected_no_backend_total", float64(snap.Totals.FastRejectedNoBackend))
	check("loadctlproxy_failed_total", float64(snap.Totals.Failed))
	check("loadctlproxy_disconnects_total", float64(snap.Totals.Disconnects))
	check("loadctlproxy_retries_total", float64(snap.Totals.Retries))
	check("loadctlproxy_alive_backends", float64(snap.Alive))
	check("loadctlproxy_mean_latency_seconds", snap.MeanLatencySeconds)
	if snap.Threshold > 0 {
		check("loadctlproxy_threshold", snap.Threshold)
	}
	check("loadctlproxy_relay_p95_seconds", snap.RelayP95Seconds)
	check("loadctlproxy_incidents_open", float64(snap.IncidentsOpen))
	check("loadctlproxy_link_dials_total", float64(snap.LinkDials))
	check("loadctlproxy_link_idle_conns", float64(snap.LinkIdleConns))
	check("loadctl_go_goroutines", float64(snap.Runtime.Goroutines))
	check("loadctl_go_heap_bytes", float64(snap.Runtime.HeapBytes))
	check("loadctl_go_gc_pause_seconds_count", float64(snap.Runtime.GCPauses))
	check("loadctl_go_gc_pause_seconds_sum", snap.Runtime.GCPauseTotalSeconds)
	for _, bs := range snap.Backends {
		label := func(name string) string { return fmt.Sprintf("%s{backend=%q}", name, fmt.Sprint(bs.Index)) }
		check(label("loadctlproxy_backend_forwarded_total"), float64(bs.Forwarded))
		check(label("loadctlproxy_backend_relayed_total"), float64(bs.Relayed))
		check(label("loadctlproxy_backend_errors_total"), float64(bs.Errors))
		check(label("loadctlproxy_backend_inflight"), float64(bs.Inflight))
		check(label("loadctlproxy_backend_score"), bs.Score)
		check(label("loadctlproxy_backend_ewma_latency_seconds"), bs.EWMALatencySeconds)
	}
}
