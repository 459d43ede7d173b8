package main

// The per-layer ledger: spans of the traced run joined by request ID, and
// each layer's self time derived as its span minus its child spans.

// queuedNanos is the queue-span length from which a request counts as
// having queued at the gate. The reqtrace queue span brackets the
// admission call, so it is never exactly zero: an uncontended AcquireFast
// is a mutex and a few counters (tens of ns), a contended Acquire parks on
// a channel until another request releases (tens of µs or more).
const queuedNanos = 2000

// request is one traced request's spans, summed by span name (kv.exec
// repeats once per attempt).
type request struct {
	dur      map[string]int64
	parent   map[string]string
	attempts int
	commits  int
	shape    string // kv.exec label: query or update
	class    string // gate.queue label: the admission class
}

// self is the span's duration minus its children's.
func (r *request) self(name string) int64 {
	d := r.dur[name]
	for child, parent := range r.parent {
		if parent == name {
			d -= r.dur[child]
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// joinSpans groups spans by request ID, keeping only the IDs in want.
func joinSpans(want map[uint64]bool, spans []span) map[uint64]*request {
	reqs := make(map[uint64]*request, len(want))
	for _, s := range spans {
		if !want[s.ID] {
			continue
		}
		r := reqs[s.ID]
		if r == nil {
			r = &request{dur: make(map[string]int64, 6), parent: make(map[string]string, 6)}
			reqs[s.ID] = r
		}
		r.dur[s.Name] += s.Dur
		r.parent[s.Name] = s.Parent
		switch s.Name {
		case spanKVExec:
			r.attempts++
			if s.Detail == "committed" {
				r.commits++
			}
			r.shape = s.Label
		case spanGateQueue:
			r.class = s.Label
		}
	}
	return reqs
}

// dist collects one span's durations over the joined requests.
type dist []int64

func (d dist) p50() float64 { return usOf(quantile(sortedCopy(d), 0.50)) }
func (d dist) p99() float64 {
	v, _ := tailQuantile(sortedCopy(d), 0.99)
	return usOf(v)
}

// layerMetrics derives the traced per-layer metrics from the saturated
// phase of the traced run. proxy says which spans a complete request has.
func layerMetrics(sat phase, spans []span, proxy bool) []metric {
	want := make(map[uint64]bool, len(sat.samples))
	clientSpans := make([]span, 0, len(sat.samples))
	for _, s := range sat.samples {
		if s.status == 200 {
			want[s.id] = true
			clientSpans = append(clientSpans, span{ID: s.id, Name: spanClientRTT, Dur: s.lat})
		}
	}
	reqs := joinSpans(want, append(clientSpans, spans...))

	need := []string{spanClientRTT, spanServerHandler, spanGateQueue, spanKVExec}
	if proxy {
		need = append(need, spanClusterHandler, spanClusterRelay)
	}
	var (
		durs       = map[string]dist{}
		selfs      = map[string]dist{}
		execShape  = map[string]dist{}
		waitClass  = map[string]dist{}
		joined     int
		queued     int
		attempts   int
		kvCommits  int
		allSpanSet = []string{spanClientRTT, spanClusterHandler, spanClusterRelay, spanServerHandler, spanGateQueue, spanKVExec}
	)
	for _, r := range reqs {
		complete := true
		for _, name := range need {
			if _, ok := r.dur[name]; !ok {
				complete = false
			}
		}
		if !complete {
			continue
		}
		joined++
		for _, name := range allSpanSet {
			if _, ok := r.dur[name]; ok {
				durs[name] = append(durs[name], r.dur[name])
				selfs[name] = append(selfs[name], r.self(name))
			}
		}
		if r.dur[spanGateQueue] >= queuedNanos {
			queued++
		}
		attempts += r.attempts
		kvCommits += r.commits
		execShape[r.shape] = append(execShape[r.shape], r.dur[spanKVExec])
		waitClass[r.class] = append(waitClass[r.class], r.dur[spanGateQueue])
	}

	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rtt := durs[spanClientRTT].p50()
	layers := []float64{
		selfs[spanClientRTT].p50(), selfs[spanClusterHandler].p50(), selfs[spanClusterRelay].p50(),
		selfs[spanServerHandler].p50(), selfs[spanGateQueue].p50(), selfs[spanKVExec].p50(),
	}
	// The share of all client round-trip time that landed in some named
	// layer's self time. Self times telescope, so a completely joined
	// request is attributed in full; what is lost is requests with a span
	// missing and children that outlast their parent.
	var attributedNanos, rttNanos int64
	for _, d := range selfs {
		for _, v := range d {
			attributedNanos += v
		}
	}
	for _, s := range sat.samples {
		if s.status == 200 {
			rttNanos += s.lat
		}
	}
	attributed := 0.0
	if rttNanos > 0 {
		attributed = float64(attributedNanos) / float64(rttNanos)
	}
	ms := []metric{
		{"client.rtt_p50_us", rtt, "us"},
		{"transport.self_p50_us", layers[0], "us"},
		{"transport.backend_self_p50_us", layers[2], "us"},
		{"cluster.handler_p50_us", durs[spanClusterHandler].p50(), "us"},
		{"cluster.self_p50_us", layers[1], "us"},
		{"cluster.relay_rtt_p50_us", durs[spanClusterRelay].p50(), "us"},
		{"server.handler_p50_us", durs[spanServerHandler].p50(), "us"},
		{"server.handler_p99_us", durs[spanServerHandler].p99(), "us"},
		{"server.self_p50_us", layers[3], "us"},
		{"gate.wait_p50_us", layers[4], "us"},
		{"gate.wait_p99_us", durs[spanGateQueue].p99(), "us"},
		{"gate.queued_frac", frac(queued, joined), "frac"},
	}
	for _, c := range []string{"interactive", "readonly", "batch"} {
		ms = append(ms, metric{"gate.wait_p50_us." + c, waitClass[c].p50(), "us"})
	}
	ms = append(ms,
		metric{"kv.exec_p50_us", layers[5], "us"},
		metric{"kv.exec_p99_us", durs[spanKVExec].p99(), "us"},
		metric{"kv.exec_p50_us.query", execShape["query"].p50(), "us"},
		metric{"kv.exec_p50_us.update", execShape["update"].p50(), "us"},
		metric{"kv.attempts", float64(attempts), "count"},
		metric{"kv.commit_ratio", frac(kvCommits, attempts), "frac"},
		metric{"trace.joined_frac", frac(joined, len(want)), "frac"},
		metric{"trace.attributed_frac", attributed, "frac"},
	)
	return ms
}
