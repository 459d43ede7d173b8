package tpsim

import (
	"fmt"
	"math"

	"github.com/tpctl/loadctl/internal/cc"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/db"
	"github.com/tpctl/loadctl/internal/gate"
	"github.com/tpctl/loadctl/internal/metrics"
	"github.com/tpctl/loadctl/internal/sim"
	"github.com/tpctl/loadctl/internal/station"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// txnState is the lifecycle position of one circulating transaction.
type txnState int

const (
	stateThinking  txnState = iota
	stateGated              // waiting in the admission queue
	stateRunning            // consuming CPU/disk in some phase
	stateBlocked            // waiting for a lock (2PL only)
	stateDisplaced          // aborted by displacement, re-queued at the gate
)

// txn is one circulating transaction (terminal). A transaction may run
// many attempts (incarnations) before committing; each attempt has a fresh
// cc.TxnID.
type txn struct {
	terminal int
	state    txnState

	// Current attempt.
	attempt  cc.TxnID
	isQuery  bool
	k        int
	items    []db.Item
	writes   []bool
	phase    int // 0 = init, 1..k = access phases, k+1 = commit
	cpuUsed  float64
	attempts int // attempts used by the current transaction (1 = first)

	submitT float64 // arrival at the gate
	admitT  float64 // admission time
}

// cpuStation is the behaviour the engine needs from the multiprocessor,
// satisfied by both the FCFS (paper) and PS (ablation) stations.
type cpuStation interface {
	station.Station
	Utilization() float64
}

// System is one fully wired simulation instance. Construct with New, run
// with Run; all state is owned by the event loop (no locking).
type System struct {
	cfg Config

	sim   *sim.Simulator
	cpu   cpuStation
	disk  *station.Delay
	gateQ *gate.Gate
	proto cc.Protocol
	dbase *db.Database
	gen   db.AccessGen

	// Random streams: one per concern for reproducibility.
	gThink   *sim.RNG
	gCPU     *sim.RNG
	gDisk    *sim.RNG
	gAccess  *sim.RNG
	gClass   *sim.RNG
	gRestart *sim.RNG

	nextAttempt cc.TxnID
	byAttempt   map[cc.TxnID]*txn
	activeOrder []*txn // admission order, newest last (displacement victims)

	// Measurement accumulators (reset each interval).
	loadAvg      telemetry.TimeWeighted
	intCommits   uint64
	intAborts    uint64
	intConflicts uint64
	intRespSum   float64
	intCPUBusy0  float64 // cpu.Stats().Busy at interval start
	intUseful    float64 // CPU seconds of attempts that committed
	curInterval  float64 // current Δt when AutoInterval is active
	prevSample   core.Sample

	res *Result
}

// New wires a System from cfg. It panics on invalid configuration.
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{
		cfg:       cfg,
		sim:       sim.New(),
		byAttempt: make(map[cc.TxnID]*txn),
		gThink:    sim.Stream(cfg.Seed, 1),
		gCPU:      sim.Stream(cfg.Seed, 2),
		gDisk:     sim.Stream(cfg.Seed, 3),
		gAccess:   sim.Stream(cfg.Seed, 4),
		gClass:    sim.Stream(cfg.Seed, 5),
		gRestart:  sim.Stream(cfg.Seed, 6),
	}
	if cfg.CPUSharing {
		s.cpu = station.NewPS(s.sim, "cpu", cfg.CPUs)
	} else {
		s.cpu = station.NewFCFS(s.sim, "cpu", cfg.CPUs)
	}
	s.disk = station.NewDelay(s.sim, "disk")
	s.dbase = db.New(cfg.DBSize)
	if cfg.HotSpot != nil {
		s.gen = db.HotSpot{DB: s.dbase, Frac: cfg.HotSpot.Frac, HotFrac: cfg.HotSpot.HotFrac}
	} else {
		s.gen = db.Uniform{DB: s.dbase}
	}
	switch cfg.Protocol {
	case OCC:
		s.proto = cc.NewCertification(s.dbase)
	case TwoPL:
		s.proto = cc.NewTwoPL()
	case WaitDie:
		s.proto = cc.NewWaitDie()
	case TSO:
		s.proto = cc.NewTimestampOrdering(s.dbase)
	default:
		panic(fmt.Sprintf("tpsim: unknown protocol %v", cfg.Protocol))
	}
	limit := math.Inf(1)
	if cfg.Controller != nil {
		limit = cfg.Controller.Bound()
	}
	s.gateQ = gate.New(limit, s.sim.Now)
	if cfg.Displacement {
		s.gateQ.SetDisplaceFn(s.displaceVictims)
	}
	s.res = newResult(cfg)
	return s
}

// Run executes the configured horizon and returns the collected result.
func (s *System) Run() *Result {
	// Start terminals with staggered initial thinks so the system does not
	// pulse at t=0.
	for i := 0; i < s.cfg.Terminals; i++ {
		t := &txn{terminal: i, state: stateThinking}
		s.sim.Schedule(s.gThink.Exp(s.cfg.Think.Mean()), "initial-think", func() {
			s.submit(t)
		})
	}
	s.loadAvg.Set(0, 0)
	s.intCPUBusy0 = 0
	s.sim.Schedule(s.cfg.MeasureEvery, "measure", s.measure)
	s.sim.Run(s.cfg.Duration)
	s.finish()
	return s.res
}

// submit sends a transaction from its terminal to the admission gate.
func (s *System) submit(t *txn) {
	t.state = stateGated
	t.submitT = s.sim.Now()
	t.attempts = 0
	s.gateQ.Arrive(func() { s.admit(t) })
}

// admit runs when the gate grants entry.
func (s *System) admit(t *txn) {
	t.admitT = s.sim.Now()
	t.state = stateRunning
	if s.cfg.Displacement {
		s.activeOrder = append(s.activeOrder, t)
	}
	s.loadAvg.Set(s.sim.Now(), float64(s.gateQ.Active()))
	s.startAttempt(t, true)
}

// startAttempt begins a fresh incarnation of t's transaction.
func (s *System) startAttempt(t *txn, first bool) {
	now := s.sim.Now()
	if first || s.cfg.ResampleOnRestart || t.items == nil {
		t.k = s.cfg.Mix.KAt(now)
		t.isQuery = s.gClass.Bernoulli(s.cfg.Mix.QueryFracAt(now))
		t.items = make([]db.Item, t.k)
		t.writes = make([]bool, t.k)
		s.gen.Generate(s.gAccess, t.items, t.writes, !t.isQuery, s.cfg.Mix.WriteFracAt(now))
	}
	t.attempt = s.nextAttempt
	s.nextAttempt++
	t.attempts++
	t.phase = 0
	t.cpuUsed = 0
	s.byAttempt[t.attempt] = t
	s.proto.Begin(t.attempt, now)
	s.runPhase(t)
}

// runPhase drives phase t.phase: request the data item (access phases),
// then burn CPU and do the phase's disk I/O, then advance.
func (s *System) runPhase(t *txn) {
	if t.phase >= 1 && t.phase <= t.k {
		idx := t.phase - 1
		switch s.proto.Access(t.attempt, t.items[idx], t.writes[idx]) {
		case cc.Granted:
			// fall through to service
		case cc.Blocked:
			t.state = stateBlocked
			return // resumed via resume() when the lock is granted
		case cc.AbortSelf:
			s.abortAttempt(t, true)
			return
		}
	}
	s.servicePhase(t)
}

// servicePhase consumes the CPU burst and disk I/O of the current phase.
// The init phase (phase 0) is CPU-only (parsing/optimization); access
// phases burn a small CPU burst and one disk I/O each.
func (s *System) servicePhase(t *txn) {
	t.state = stateRunning
	attempt := t.attempt
	var demand float64
	if t.phase == 0 {
		demand = s.cfg.InitCPU.Sample(s.gCPU)
	} else {
		demand = s.cfg.CPUPhase.Sample(s.gCPU)
	}
	s.cpu.Arrive(&station.Job{
		ID:     uint64(attempt),
		Demand: demand,
		Done: func() {
			if t.attempt != attempt || t.state == stateDisplaced {
				return // attempt was aborted (displacement) while queued
			}
			t.cpuUsed += demand
			if t.phase == 0 {
				s.phaseDone(t)
				return
			}
			s.disk.Arrive(&station.Job{
				ID:     uint64(attempt),
				Demand: s.cfg.Disk.Sample(s.gDisk),
				Done: func() {
					if t.attempt != attempt || t.state == stateDisplaced {
						return
					}
					s.phaseDone(t)
				},
			})
		},
	})
}

// phaseDone advances to the next phase or enters commit processing.
func (s *System) phaseDone(t *txn) {
	if t.phase < t.k+1 {
		t.phase++
		if t.phase == t.k+1 {
			s.tryCommit(t)
			return
		}
		s.runPhase(t)
		return
	}
	panic("tpsim: phase advanced past commit")
}

// tryCommit runs certification at the commit point (the commit phase's
// CPU+disk cost was consumed as the k+1-th phase service below).
func (s *System) tryCommit(t *txn) {
	// Commit phase consumes the commit-processing CPU burst (validation,
	// log preparation) + one disk write (log force), then certifies.
	attempt := t.attempt
	demand := s.cfg.CommitCPU.Sample(s.gCPU)
	s.cpu.Arrive(&station.Job{
		ID:     uint64(attempt),
		Demand: demand,
		Done: func() {
			if t.attempt != attempt || t.state == stateDisplaced {
				return
			}
			t.cpuUsed += demand
			s.disk.Arrive(&station.Job{
				ID:     uint64(attempt),
				Demand: s.cfg.Disk.Sample(s.gDisk),
				Done: func() {
					if t.attempt != attempt || t.state == stateDisplaced {
						return
					}
					s.certify(t)
				},
			})
		},
	})
}

func (s *System) certify(t *txn) {
	now := s.sim.Now()
	if s.proto.Certify(t.attempt) {
		unblocked := s.proto.Commit(t.attempt, now)
		delete(s.byAttempt, t.attempt)
		s.complete(t)
		s.resume(unblocked)
		return
	}
	s.abortAttempt(t, true)
}

// complete finishes a committed transaction: stats, gate departure, back to
// the terminal for a think period.
func (s *System) complete(t *txn) {
	now := s.sim.Now()
	s.intCommits++
	s.intUseful += t.cpuUsed
	s.intRespSum += now - t.submitT
	s.res.recordCommit(now, now-t.submitT, now-t.admitT, t.attempts, s.cfg.WarmUp)
	s.removeActive(t)
	t.state = stateThinking
	s.gateQ.Depart()
	s.loadAvg.Set(now, float64(s.gateQ.Active()))
	s.sim.Schedule(s.cfg.Think.Sample(s.gThink), "think", func() {
		s.submit(t)
	})
}

// abortAttempt handles a certification failure or deadlock victim: release
// protocol state and rerun after the configured delay. The transaction
// stays admitted (reruns consume resources — the §1 thrashing mechanism).
func (s *System) abortAttempt(t *txn, restart bool) {
	unblocked := s.proto.Abort(t.attempt)
	delete(s.byAttempt, t.attempt)
	s.intAborts++
	s.res.recordAbort(s.sim.Now(), t.cpuUsed, s.cfg.WarmUp)
	s.resume(unblocked)
	if !restart {
		return
	}
	delay := s.cfg.RestartDelay.Sample(s.gRestart)
	if delay <= 0 {
		s.startAttempt(t, false)
		return
	}
	s.sim.Schedule(delay, "restart", func() {
		if t.state != stateDisplaced {
			s.startAttempt(t, false)
		}
	})
}

// resume continues transactions whose blocked lock request was granted.
func (s *System) resume(ids []cc.TxnID) {
	for _, id := range ids {
		t, ok := s.byAttempt[id]
		if !ok || t.state != stateBlocked {
			continue
		}
		t.state = stateRunning
		s.servicePhase(t)
	}
}

// displaceVictims implements §4.3 option (ii): abort the youngest active
// transactions and re-queue them at the head of the gate.
func (s *System) displaceVictims(excess int) {
	for i := 0; i < excess && len(s.activeOrder) > 0; i++ {
		t := s.activeOrder[len(s.activeOrder)-1]
		s.activeOrder = s.activeOrder[:len(s.activeOrder)-1]
		if _, live := s.byAttempt[t.attempt]; live {
			unblocked := s.proto.Abort(t.attempt)
			delete(s.byAttempt, t.attempt)
			s.resume(unblocked)
		}
		t.state = stateDisplaced
		s.res.displacements++
		s.gateQ.DisplacedDepart()
		s.loadAvg.Set(s.sim.Now(), float64(s.gateQ.Active()))
		s.gateQ.Reenter(func() { s.admit(t) })
	}
}

func (s *System) removeActive(t *txn) {
	if !s.cfg.Displacement {
		return
	}
	for i, a := range s.activeOrder {
		if a == t {
			s.activeOrder = append(s.activeOrder[:i], s.activeOrder[i+1:]...)
			return
		}
	}
}

// measure closes one measurement interval: compute the Sample, feed the
// controller, install the new bound, record the series, reset accumulators.
func (s *System) measure() {
	now := s.sim.Now()
	dt := s.cfg.MeasureEvery
	if s.cfg.AutoInterval && s.curInterval > 0 {
		dt = s.curInterval
	}

	busy := s.cpu.Stats().Busy
	cpuCap := float64(s.cfg.CPUs) * dt
	sample := core.Sample{
		Time:        now,
		Load:        s.loadAvg.Mean(now),
		Throughput:  float64(s.intCommits) / dt,
		Completions: s.intCommits,
	}
	if s.intCommits > 0 {
		sample.RespTime = s.intRespSum / float64(s.intCommits)
		sample.ConflictRate = float64(s.intConflictsDelta()) / float64(s.intCommits)
	} else {
		sample.ConflictRate = float64(s.intConflictsDelta())
	}
	util := (busy - s.intCPUBusy0) / cpuCap
	goodput := s.intUseful / cpuCap
	switch s.cfg.PerfIndicator {
	case IndicatorThroughput:
		sample.Perf = sample.Throughput
	case IndicatorInvResponse:
		if sample.RespTime > 0 {
			sample.Perf = 1 / sample.RespTime
		}
	case IndicatorGoodput:
		sample.Perf = goodput
	case IndicatorUtilization:
		sample.Perf = util
	}

	bound := s.gateQ.Limit()
	if s.cfg.Controller != nil {
		bound = s.cfg.Controller.Update(sample)
		s.gateQ.SetLimit(bound)
	}
	s.res.recordInterval(now, sample, bound, util, goodput,
		float64(s.gateQ.QueueLen()), s.cfg.WarmUp)

	// Reset interval accumulators.
	s.prevSample = sample
	s.intCommits = 0
	s.intAborts = 0
	s.intRespSum = 0
	s.intUseful = 0
	s.intCPUBusy0 = busy
	s.loadAvg.ResetAt(now)
	s.markConflicts()

	next := dt
	if s.cfg.AutoInterval {
		next = s.nextInterval(sample.Throughput)
		s.curInterval = next
	}
	if now+next <= s.cfg.Duration {
		s.sim.Schedule(next, "measure", s.measure)
	}
}

// nextInterval implements the §5 outer loop: size the next measurement
// interval so the throughput estimate reaches the target accuracy, given
// the current departure rate (Heiss 1988: n ≥ (z·cv/ε)²).
func (s *System) nextInterval(throughput float64) float64 {
	relErr := s.cfg.IntervalRelErr
	if relErr <= 0 {
		relErr = 0.1
	}
	lo, hi := s.cfg.MinInterval, s.cfg.MaxInterval
	if lo <= 0 {
		lo = 1
	}
	if hi <= 0 {
		hi = 30
	}
	needed := metrics.RequiredDepartures(1.0, relErr, 1.96)
	return metrics.SuggestInterval(throughput, needed, lo, hi)
}

// conflict bookkeeping: protocol stats are cumulative; track the delta.
var _ = fmt.Sprintf // keep fmt imported for panics above

func (s *System) intConflictsDelta() uint64 {
	return s.proto.Stats().Conflicts - s.intConflicts
}

func (s *System) markConflicts() {
	s.intConflicts = s.proto.Stats().Conflicts
}

// finish seals aggregate statistics into the result.
func (s *System) finish() {
	s.res.seal(s)
}

// Sim exposes the simulator clock (tests and experiment harness).
func (s *System) Sim() *sim.Simulator { return s.sim }

// Gate exposes the admission gate (tests).
func (s *System) Gate() *gate.Gate { return s.gateQ }

// Protocol exposes the CC protocol (tests).
func (s *System) Protocol() cc.Protocol { return s.proto }

// CPU exposes the multiprocessor station (tests and diagnostics).
func (s *System) CPU() station.Station { return s.cpu }

// Disk exposes the disk station (tests and diagnostics).
func (s *System) Disk() *station.Delay { return s.disk }
