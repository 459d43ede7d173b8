package main

import (
	"fmt"
	"time"
)

// Output checks. The client's own tally of every request it sent to a
// topology (warm-up included) must agree with what the servers say they
// did; a disagreement fails the run.

// serverSnapshot is the part of loadctld's /metrics?format=json read here.
type serverSnapshot struct {
	Totals struct {
		Requests uint64 `json:"requests"`
		Commits  uint64 `json:"commits"`
		Aborts   uint64 `json:"aborts"`
		Rejected uint64 `json:"rejected"`
		Timeouts uint64 `json:"timeouts"`
	} `json:"totals"`
}

// proxySnapshot is the part of loadctlproxy's /metrics?format=json read here.
type proxySnapshot struct {
	Totals struct {
		Requests              uint64 `json:"requests"`
		Relayed               uint64 `json:"relayed"`
		FastRejectedOverload  uint64 `json:"fast_rejected_overload"`
		FastRejectedNoBackend uint64 `json:"fast_rejected_no_backend"`
		Failed                uint64 `json:"failed"`
		Disconnects           uint64 `json:"disconnects"`
		Retries               uint64 `json:"retries"`
	} `json:"totals"`
}

// controllerView is the part of GET /controller read here.
type controllerView struct {
	Updates uint64 `json:"updates"`
}

// settle retries a scrape-and-compare for up to a second: the proxy counts
// a relay only after it has written the answer, so the last client to read
// its response can get here a moment before the counter does.
func settle(check func() (bool, error)) error {
	deadline := time.Now().Add(time.Second)
	for {
		ok, err := check()
		if err != nil || ok || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// reconcile checks the client's tally against the servers' counters,
// recording each mismatch on r, and returns the scraped layer counts.
func reconcile(r *result, s *system) []metric {
	t := &s.cl.tally
	ok200 := t.byStatus[200]
	for status, n := range t.byStatus {
		switch status {
		case 200, 429, 503, 409, 0:
		default:
			r.problem("client: %d answers with unexpected status %d", n, status)
		}
	}
	if known := ok200 + t.byStatus[429] + t.byStatus[503] + t.byStatus[409] + t.byStatus[0]; known != t.sent {
		r.problem("client: sent %d != 200s+429s+503s+409s+errors %d", t.sent, known)
	}
	if t.uncommitted > 0 {
		r.problem(`client: %d of the 200 answers did not say "status":"committed"`, t.uncommitted)
	}

	var sum serverSnapshot
	var decisions uint64
	err := settle(func() (bool, error) {
		sum, decisions = serverSnapshot{}, 0
		for _, b := range s.topo.backends {
			var snap serverSnapshot
			if err := scrapeJSON(b.addr, "/metrics?format=json", &snap); err != nil {
				return false, err
			}
			var cv controllerView
			if err := scrapeJSON(b.addr, "/controller?trace=1", &cv); err != nil {
				return false, err
			}
			sum.Totals.Requests += snap.Totals.Requests
			sum.Totals.Commits += snap.Totals.Commits
			sum.Totals.Aborts += snap.Totals.Aborts
			sum.Totals.Rejected += snap.Totals.Rejected
			sum.Totals.Timeouts += snap.Totals.Timeouts
			decisions += cv.Updates
		}
		return sum.Totals.Commits == ok200, nil
	})
	if err != nil {
		r.problem("scrape backends: %v", err)
	} else if sum.Totals.Commits != ok200 {
		r.problem("backends committed %d, client saw %d 200s", sum.Totals.Commits, ok200)
	}
	ms := []metric{
		{"server.requests", float64(sum.Totals.Requests), "count"},
		{"server.commits", float64(sum.Totals.Commits), "count"},
		{"server.aborts", float64(sum.Totals.Aborts), "count"},
		{"server.timeouts", float64(sum.Totals.Timeouts), "count"},
		{"server.rejected", float64(sum.Totals.Rejected), "count"},
		{"core.decisions", float64(decisions), "count"},
	}

	var px proxySnapshot
	if s.topo.proxy != nil {
		doors := func() uint64 {
			return px.Totals.Relayed + px.Totals.FastRejectedOverload + px.Totals.FastRejectedNoBackend + px.Totals.Failed + px.Totals.Disconnects
		}
		err := settle(func() (bool, error) {
			px = proxySnapshot{}
			if err := scrapeJSON(s.topo.proxy.addr, "/metrics?format=json", &px); err != nil {
				return false, err
			}
			return px.Totals.Requests == doors() && px.Totals.Requests == t.sent, nil
		})
		switch {
		case err != nil:
			r.problem("scrape proxy: %v", err)
		case px.Totals.Requests != doors():
			r.problem("proxy: requests %d != relayed+fast_rejected+failed+disconnects %d", px.Totals.Requests, doors())
		case px.Totals.Requests != t.sent:
			r.problem("proxy saw %d requests, client sent %d", px.Totals.Requests, t.sent)
		}
	}
	// On the direct workloads there is no cluster layer: its counts are 0.
	ms = append(ms,
		metric{"cluster.relayed", float64(px.Totals.Relayed), "count"},
		metric{"cluster.fast_rejects", float64(px.Totals.FastRejectedOverload + px.Totals.FastRejectedNoBackend), "count"},
		metric{"cluster.failed", float64(px.Totals.Failed), "count"},
		metric{"cluster.retries", float64(px.Totals.Retries), "count"},
	)
	if len(r.Problems) > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("client tally: sent %d, by status %v", t.sent, t.byStatus))
	}
	return ms
}
