package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/tpctl/loadctl/internal/loadsig"
)

// healthLoop actively probes every backend's /healthz on HealthInterval.
// Active checks complement the passive per-response ingest in two ways
// the data path cannot: they revive a dead backend that came back (no
// traffic is routed there, so no response could prove it recovered), and
// they keep signals fresh for backends the policy currently starves.
func (p *Proxy) healthLoop() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.HealthInterval)
	defer ticker.Stop()
	// One immediate sweep so the proxy starts with signals instead of
	// routing blind for a full interval.
	p.checkAll()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.checkAll()
		}
	}
}

// checkAll probes all backends concurrently and waits for the sweep to
// finish — probes never overlap themselves on a slow backend.
func (p *Proxy) checkAll() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			p.checkOne(b)
		}(b)
	}
	wg.Wait()
}

// checkOne probes one backend. 200 means healthy; 503 with a parseable
// draining signal means "alive but draining" (graceful shutdown — out of
// rotation, not a failure); anything else counts toward DeadAfter. A 200
// whose body is empty or does not parse is still a live backend: it is
// revived with its load unknown — whatever the data path last ingested,
// ageing into staleness — rather than failed for its JSON.
func (p *Proxy) checkOne(b *backend) {
	b.checks.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		p.checkFailed(b)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.checkFailed(b)
		return
	}
	defer resp.Body.Close()

	var sig loadsig.Signal
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	parsed := json.Unmarshal(body, &sig) == nil && sig.Status != ""
	switch {
	case resp.StatusCode == http.StatusOK && parsed:
		b.sig.Store(&sig)
		b.sigAt.Store(p.nowNanos())
		b.draining.Store(sig.Draining())
		b.revive()
	case resp.StatusCode == http.StatusOK:
		b.revive()
	case resp.StatusCode == http.StatusServiceUnavailable && parsed && sig.Draining():
		// Draining is deliberate: keep the backend alive but unroutable,
		// so the kill/restart scenarios can tell a drain from a crash.
		b.sig.Store(&sig)
		b.sigAt.Store(p.nowNanos())
		b.draining.Store(true)
		b.revive()
	default:
		p.checkFailed(b)
	}
}

// checkFailed books one failed probe and kills the backend at DeadAfter.
func (p *Proxy) checkFailed(b *backend) {
	b.checkFails.Add(1)
	if int(b.consecFails.Add(1)) >= p.cfg.DeadAfter {
		b.markDead(p.nowNanos())
	}
}
