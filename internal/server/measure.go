package server

import (
	"slices"
	"time"

	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/loadsig"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// This file is the server's "sense" wiring: the striped counter schema,
// fold→accumulator mapping, snapshot assembly, and the cached load signal
// the cluster tier ingests. The primitives live in internal/telemetry.

// Striped counter schema. The order is load-bearing: telemetry folds read
// counters in schema order, so each event count precedes its timestamp
// sum (a racing fold can only see a sum without its count, the direction
// the interval close clamps away) and exits precede entries (a request
// racing the fold can only appear entered-but-not-yet-exited, never as a
// negative active population). Writers order their adds accordingly:
// timestamp first, count second (see noteEnter/noteExit).
const (
	cExits = iota
	cExitNanos
	cEntries
	cEntryNanos
	cRequests
	cCommits
	cAborts
	cRejected
	cTimeouts
	cRespN
	cRespNanos
	cDisconnects
)

var counterSchema = []string{
	"exits", "exit_nanos", "entries", "entry_nanos",
	"requests", "commits", "aborts", "rejected", "timeouts",
	"resp_n", "resp_nanos", "disconnects",
}

// noteEnter/noteExit feed the load integrator (the n(t) signal of the
// paper's measurement loop) without any shared state: each records the
// event's timestamp sum before its count, matching the fold's read order,
// so the tick can reconstruct ∫ n(t) dt from per-stripe monotone counters.
//
//loadctl:hotpath
func (s *Server) noteEnter(cell telemetry.Cell) {
	cell.Add(cEntryNanos, uint64(time.Since(s.start).Nanoseconds()))
	cell.Inc(cEntries)
}

//loadctl:hotpath
func (s *Server) noteExit(cell telemetry.Cell) {
	cell.Add(cExitNanos, uint64(time.Since(s.start).Nanoseconds()))
	cell.Inc(cExits)
}

// accumOf maps one fold onto the interval accumulator telemetry closes
// intervals from.
func accumOf(f telemetry.Fold) telemetry.Accum {
	return telemetry.Accum{
		Commits:    f[cCommits],
		Aborts:     f[cAborts],
		RespN:      f[cRespN],
		RespNanos:  f[cRespNanos],
		Entries:    f[cEntries],
		EntryNanos: f[cEntryNanos],
		Exits:      f[cExits],
		ExitNanos:  f[cExitNanos],
	}
}

// IntervalStats is one closed measurement interval as exposed by
// /metrics — the shared telemetry interval.
type IntervalStats = telemetry.Interval

// Totals are monotone counters since server start. Disconnects counts
// requests whose caller went away before an answer existed — the request
// context canceled (net/http) or the front-door connection closed, while queued for
// admission or mid-execution — distinct from engine errors and from
// admission timeouts. Every request leaves through exactly one of commit,
// terminal abort, rejection, timeout, disconnect or engine error.
type Totals struct {
	Requests    uint64 `json:"requests"`
	Commits     uint64 `json:"commits"`
	Aborts      uint64 `json:"aborts"`
	Rejected    uint64 `json:"rejected"`
	Timeouts    uint64 `json:"timeouts"`
	Disconnects uint64 `json:"disconnects"`
}

func (t *Totals) add(o Totals) {
	t.Requests += o.Requests
	t.Commits += o.Commits
	t.Aborts += o.Aborts
	t.Rejected += o.Rejected
	t.Timeouts += o.Timeouts
	t.Disconnects += o.Disconnects
}

func totalsOf(f telemetry.Fold) Totals {
	return Totals{
		Requests:    f[cRequests],
		Commits:     f[cCommits],
		Aborts:      f[cAborts],
		Rejected:    f[cRejected],
		Timeouts:    f[cTimeouts],
		Disconnects: f[cDisconnects],
	}
}

// ClassSnapshot is one admission class's slice of the metrics snapshot.
type ClassSnapshot struct {
	Name     string  `json:"name"`
	Weight   float64 `json:"weight"`
	Priority int     `json:"priority"`
	// Limit is the class's effective concurrency slice: its guaranteed
	// share of the pool in pool control, its own controller-steered limit
	// in per-class control.
	Limit  float64 `json:"limit"`
	Active int     `json:"active"`
	Queued int     `json:"queued"`
	// SLOTarget is the class's p95 response-time target in seconds (0
	// when the class has none).
	SLOTarget float64 `json:"slo_target,omitempty"`
	Totals    Totals  `json:"totals"`
	// Interval is the class's most recently closed measurement interval.
	Interval IntervalStats `json:"interval"`
	// RespP50/P95/P99 are response-time quantiles in seconds over all
	// commits since server start (log-bucketed, ±~10%).
	RespP50 float64 `json:"resp_p50"`
	RespP95 float64 `json:"resp_p95"`
	RespP99 float64 `json:"resp_p99"`
	// Gate is the class's admission-gate snapshot (queue depth, shed
	// counts, share).
	Gate gate.ClassStats `json:"gate"`
}

// Snapshot is the JSON document served by /metrics?format=json.
type Snapshot struct {
	Now        float64 `json:"now"`
	Engine     string  `json:"engine"`
	Controller string  `json:"controller"`
	// Mode is "pool", "perclass" or "slo" — what the controllers steer.
	Mode   string         `json:"mode"`
	Limit  float64        `json:"limit"`
	Active int            `json:"active"`
	Queued int            `json:"queued"`
	Gate   gate.LiveStats `json:"gate"`
	Totals Totals         `json:"totals"`
	// Interval is the most recently closed measurement interval (zero
	// value until the first interval closes).
	Interval IntervalStats `json:"interval"`
	// Runtime is the Go runtime snapshot taken at the last measurement
	// tick (goroutines, heap, GC pauses) — sampled on the control loop's
	// cadence, never per request.
	Runtime telemetry.RuntimeStats `json:"runtime"`
	// IncidentsOpen is the number of overload incidents currently open on
	// the flight recorder (see GET /debug/incidents).
	IncidentsOpen int `json:"incidents_open"`
	// DoorConns is the number of open front-door keep-alive connections:
	// the ones FrontDoor serves itself, proxies' included.
	DoorConns int `json:"door_conns"`
	// Classes holds the per-class breakdown in configuration order.
	Classes []ClassSnapshot `json:"classes"`
	// History holds the retained closed aggregate intervals, oldest first
	// (only populated with ?history=1).
	History []IntervalStats `json:"history,omitempty"`
}

// SnapshotNow assembles the current metrics snapshot.
func (s *Server) SnapshotNow(withHistory bool) Snapshot {
	folds := s.tel.FoldAll()
	gateStats := s.multi.Stats()

	var totals Totals
	classTotals := make([]Totals, len(folds))
	for ci, f := range folds {
		classTotals[ci] = totalsOf(f)
		totals.add(classTotals[ci])
	}

	s.mu.Lock()
	snap := Snapshot{
		Now:        s.elapsed(),
		Engine:     s.cfg.Engine.Name(),
		Controller: s.ctrl.Name(),
		Mode:       s.mode,
		Totals:     totals,
		Interval:   s.last,
	}
	for ci, cc := range s.classes {
		g := gateStats.Classes[ci]
		limit := g.Share
		if s.mode != modePool {
			limit = g.Limit
		}
		q := s.hists[ci].Summary()
		snap.Classes = append(snap.Classes, ClassSnapshot{
			Name:      cc.Name,
			Weight:    g.Weight,
			Priority:  cc.Priority,
			Limit:     limit,
			Active:    g.Active,
			Queued:    g.Queued,
			SLOTarget: cc.SLOTarget,
			Totals:    classTotals[ci],
			Interval:  s.lastClass[ci],
			RespP50:   q.P50,
			RespP95:   q.P95,
			RespP99:   q.P99,
			Gate:      g,
		})
	}
	if withHistory {
		snap.History = append([]IntervalStats(nil), s.history...)
	}
	s.mu.Unlock()
	snap.Limit = s.multi.Limit()
	snap.Active = gateStats.Active
	snap.Queued = gateStats.Queued
	snap.Gate = s.multi.AggregateStats()
	snap.Runtime = s.runtime.Stats()
	snap.IncidentsOpen = s.obsRec.OpenCount()
	snap.DoorConns = s.DoorConns()
	return snap
}

// jsonSnapshot is snap as /metrics?format=json serves it: every limit an
// uncontrolled gate (-controller none) leaves at +Inf goes out as
// loadsig.JSONLimit, the sentinel /healthz uses. The Prometheus form is
// rendered from the untouched snapshot, where +Inf is a legal value.
func jsonSnapshot(snap Snapshot) Snapshot {
	fin := loadsig.JSONLimit
	snap.Limit, snap.Interval.Limit = fin(snap.Limit), fin(snap.Interval.Limit)
	snap.Classes = slices.Clone(snap.Classes)
	for i := range snap.Classes {
		c := &snap.Classes[i]
		c.Limit, c.Interval.Limit = fin(c.Limit), fin(c.Interval.Limit)
		c.Gate.Share, c.Gate.Limit = fin(c.Gate.Share), fin(c.Gate.Limit)
	}
	snap.History = slices.Clone(snap.History)
	for i := range snap.History {
		snap.History[i].Limit = fin(snap.History[i].Limit)
	}
	return snap
}

// cachedSignal is one rendered load signal; the header string is the
// encoded form attached to every response.
type cachedSignal struct {
	sig    loadsig.Signal
	header string
}

// signalTTL bounds how stale the cached load signal may get. 50ms is well
// below any realistic health-check interval while keeping the refresh —
// one gate Stats() call — off the per-request path.
const signalTTL = 50 * time.Millisecond

// loadSignal returns the current (possibly up to signalTTL stale) load
// signal. The first caller past the TTL wins a CAS and rebuilds; everyone
// else keeps the previous value, so concurrent requests never stack up on
// the gate's mutex just to report load.
func (s *Server) loadSignal() *cachedSignal {
	now := time.Since(s.start).Nanoseconds()
	stamp := s.sigStamp.Load()
	if c := s.sigCache.Load(); c != nil && now-stamp < signalTTL.Nanoseconds() {
		return c
	}
	if !s.sigStamp.CompareAndSwap(stamp, now) {
		if c := s.sigCache.Load(); c != nil {
			return c
		}
	}
	st := s.multi.Stats() //loadctl:allocok audited: TTL refresh branch — at most one caller per 50ms reaches here
	sig := loadsig.Signal{
		Status:  loadsig.StatusOK,
		Limit:   s.multi.Limit(), //loadctl:allocok audited: TTL refresh branch — see Stats above
		Active:  st.Active,
		Queued:  st.Queued,
		Default: s.classes[0].Name,
	}
	sig.Util = loadsig.UtilOf(sig.Active, sig.Limit)
	if s.draining.Load() {
		sig.Status = loadsig.StatusDraining
	}
	mask := s.shedMask.Load()
	for ci, cc := range s.classes {
		if ci < 64 && mask&(1<<uint(ci)) != 0 {
			sig.Shedding = append(sig.Shedding, cc.Name)
		}
	}
	// Open incident count rides the signal so routing tiers see incident
	// pressure without scraping the dump (atomic load; refresh-path only).
	sig.Incidents = s.obsRec.OpenCount()
	c := &cachedSignal{sig: sig, header: sig.Encode()}
	s.sigCache.Store(c)
	return c
}
