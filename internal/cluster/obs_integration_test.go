package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/tpctl/loadctl/internal/loadgen"
	"github.com/tpctl/loadctl/internal/obs"
	"github.com/tpctl/loadctl/internal/reqtrace"
	"github.com/tpctl/loadctl/internal/server"
)

// TestClusterOverloadIncidentTimeline is the flight-recorder acceptance
// scenario, fast enough for -short: a flash crowd through a proxy over
// three backends must (a) open a shed-spike incident on the backends
// within a tick or two of the first shed, with the evidence bundle
// attached; (b) open an overload incident on the proxy tier; (c) close
// everything after recovery without flapping; and (d) let a concurrently
// running monitor merge both tiers into one timeline with the overload
// correlated into a single cross-tier group.
func TestClusterOverloadIncidentTimeline(t *testing.T) {
	// 64 workers over 3 pools of 4 at 15ms service put the steady-state
	// admission wait near 80ms — the 60ms queue timeout guarantees the
	// crowd sheds instead of merely queueing.
	const (
		svc          = 15 * time.Millisecond
		pool         = 4.0
		queueTimeout = 60 * time.Millisecond
		tick         = 100 * time.Millisecond
	)
	mutate := func(c *server.Config) {
		c.ReqTrace = reqtrace.Config{SampleEvery: 1}
	}
	backends := []*testBackend{
		startBackendWith(t, svc, pool, queueTimeout, mutate),
		startBackendWith(t, svc, pool, queueTimeout, mutate),
		startBackendWith(t, svc, pool, queueTimeout, mutate),
	}
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url()
	}
	p, err := New(Config{
		Backends:       urls,
		Policy:         "round-robin",
		HealthInterval: tick,
		TuneInterval:   tick,
		ReqTrace:       reqtrace.Config{SampleEvery: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	front := serveProxy(t, p)

	// The monitor watches the whole fleet while the scenario runs.
	targets := append([]string{front.URL}, urls...)
	mon := obs.NewMonitor(obs.MonitorConfig{
		Targets:  targets,
		Interval: 150 * time.Millisecond,
		Client:   &http.Client{Timeout: 2 * time.Second},
	})
	var (
		tl      *obs.Timeline
		monDone = make(chan struct{})
	)
	go func() {
		defer close(monDone)
		tl = mon.Run(context.Background(), 4*time.Second)
	}()

	// Flash crowd: enough concurrency to exhaust 3 pools of 4 and keep
	// the admission queues past their timeout.
	burstStart := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 2 * time.Second}
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(front.URL+"/txn?k=2", "application/json", nil)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	// (a) A backend shed-spike incident opens while the crowd is live.
	// The shed condition needs a closed interval showing timeouts, which
	// start only after queueTimeout — so the bound is queueTimeout plus a
	// couple of ticks of detection latency, with scheduler slack.
	var spikeBackend *testBackend
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && spikeBackend == nil {
		for _, b := range backends {
			if b.srv.Incidents().OpenCount() > 0 {
				spikeBackend = b
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if spikeBackend == nil {
		close(stop)
		wg.Wait()
		t.Fatal("no backend opened an incident under the flash crowd")
	}
	openLatency := time.Since(burstStart)
	if limit := queueTimeout + 4*tick + 500*time.Millisecond; openLatency > limit {
		t.Errorf("incident took %s to open, want within %s of the crowd", openLatency, limit)
	}

	// (b) The proxy tier opens its own overload incident: cluster-shed
	// once every backend's signal sheds, or its own fast-reject spike.
	deadline = time.Now().Add(3 * time.Second)
	proxyOpened := false
	for time.Now().Before(deadline) && !proxyOpened {
		proxyOpened = p.Incidents().OpenCount() > 0
		time.Sleep(10 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	if !proxyOpened {
		t.Fatal("proxy never opened an overload incident while all backends shed")
	}

	// Evidence bundle on the first backend incident, via the wire form so
	// the whole /debug/incidents contract is exercised.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	dump, err := loadgen.FetchIncidents(ctx, client, spikeBackend.url())
	if err != nil {
		t.Fatal(err)
	}
	var spike *obs.Incident
	for i := range dump.Incidents {
		if dump.Incidents[i].Kind == obs.KindShedSpike {
			spike = &dump.Incidents[i]
			break
		}
	}
	if spike == nil {
		t.Fatalf("no shed-spike incident in the dump: %+v", dump.Incidents)
	}
	if spike.Bundle == nil || len(spike.Bundle.Decisions) == 0 {
		t.Fatalf("spike bundle missing decisions: %+v", spike.Bundle)
	}
	var histTotal uint64
	for _, hd := range spike.Bundle.HistDeltas {
		histTotal += hd.Total
	}
	if histTotal == 0 {
		t.Fatal("spike bundle carries no interval histogram delta")
	}
	shedTraced := false
	for _, tr := range spike.Bundle.Recent {
		if tr.Status == reqtrace.StatusTimeout || tr.Status == reqtrace.StatusRejected {
			shedTraced = true
			break
		}
	}
	if !shedTraced {
		t.Fatalf("spike bundle recent traces show no shed request: %+v", spike.Bundle.Recent)
	}

	// (c) Recovery: with the crowd gone, every incident closes, and the
	// per-condition edge history shows no flapping (each episode is one
	// start and one end).
	deadline = time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		open := p.Incidents().OpenCount()
		for _, b := range backends {
			open += b.srv.Incidents().OpenCount()
		}
		if open == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	checkEdges := func(name string, d obs.IncidentDump) {
		t.Helper()
		type cond struct{ kind, subject string }
		starts := map[cond]int{}
		ends := map[cond]int{}
		for _, e := range d.Events {
			c := cond{e.Kind, e.Subject}
			switch e.Edge {
			case obs.EdgeStart:
				starts[c]++
			case obs.EdgeEnd:
				ends[c]++
			}
		}
		for c, n := range starts {
			if ends[c] != n {
				t.Errorf("%s: condition %v has %d starts but %d ends after recovery", name, c, n, ends[c])
			}
			if n > 2 {
				t.Errorf("%s: condition %v opened %d times in one episode: flapping", name, c, n)
			}
		}
	}
	checkEdges("proxy", p.Incidents().Dump())
	for i, b := range backends {
		if b.srv.Incidents().OpenCount() != 0 {
			t.Errorf("backend %d still has open incidents after recovery", i)
		}
		checkEdges("backend", b.srv.Incidents().Dump())
	}
	if p.Incidents().OpenCount() != 0 {
		t.Error("proxy still has open incidents after recovery")
	}

	// (d) The merged timeline: all four targets scraped and tier-tagged,
	// shed visible in the series, and one correlation group containing the
	// overload from both tiers.
	<-monDone
	if tl.Format != obs.TimelineFormat {
		t.Fatalf("timeline format %q", tl.Format)
	}
	tiers := map[string]int{}
	for _, ti := range tl.Targets {
		tiers[ti.Tier]++
		if ti.Scrapes == 0 {
			t.Errorf("target %s never scraped", ti.URL)
		}
	}
	if tiers["proxy"] != 1 || tiers["server"] != 3 {
		t.Fatalf("tier detection: %v", tiers)
	}
	var shedPoints uint64
	for _, s := range tl.Series {
		for _, pt := range s.Points {
			shedPoints += pt.Shed
		}
	}
	if shedPoints == 0 {
		t.Fatal("timeline series show no shed work despite the flash crowd")
	}
	groupTiers := map[int]map[string]bool{}
	for _, mk := range tl.Incidents {
		if groupTiers[mk.Group] == nil {
			groupTiers[mk.Group] = map[string]bool{}
		}
		groupTiers[mk.Group][mk.Tier] = true
	}
	crossTier := false
	for _, tiers := range groupTiers {
		if tiers["proxy"] && tiers["server"] {
			crossTier = true
			break
		}
	}
	if !crossTier {
		t.Fatalf("no correlation group spans both tiers: %d incidents in %d groups\n%s",
			len(tl.Incidents), tl.Groups, tl.Text())
	}

	// CI artifact: write the timeline where the workflow asked for it.
	if out := os.Getenv("LOADCTLMON_OUT"); out != "" {
		blob, err := json.MarshalIndent(tl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("timeline written to %s\n%s", out, tl.Text())
	}
}
