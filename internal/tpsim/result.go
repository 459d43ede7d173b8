package tpsim

import (
	"fmt"
	"strings"

	"github.com/tpctl/loadctl/internal/cc"
	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// Result collects everything a run produced: per-interval series (including
// warm-up, so trajectories like figures 13/14 are complete) and post-warm-up
// aggregates.
type Result struct {
	// Per-interval series over the whole horizon.
	Throughput   telemetry.Series // commits per second
	Load         telemetry.Series // time-averaged active n
	Bound        telemetry.Series // gate threshold n*
	Resp         telemetry.Series // mean response time of the interval
	ConflictRate telemetry.Series // conflicts per commit
	Util         telemetry.Series // raw CPU utilization
	Goodput      telemetry.Series // committed-work CPU fraction
	GateQueue    telemetry.Series // admission queue length

	// Post-warm-up aggregates.
	Commits       uint64
	Aborts        uint64
	RespStats     telemetry.Welford // response time of committed txns
	GateWaitStats telemetry.Welford // admission delay of committed txns
	AttemptsStats telemetry.Welford // attempts needed per commit
	WastedCPU     float64           // CPU seconds burned by aborted attempts
	UsefulCPU     float64           // CPU seconds of committed attempts

	displacements uint64

	// Sealed at the end of the run.
	CCStats  cc.Stats
	CPUUtil  float64
	Duration float64
	WarmUp   float64

	cfgLabel string
}

func newResult(cfg Config) *Result {
	return &Result{
		Throughput:   telemetry.Series{Name: "throughput"},
		Load:         telemetry.Series{Name: "load"},
		Bound:        telemetry.Series{Name: "bound"},
		Resp:         telemetry.Series{Name: "resp"},
		ConflictRate: telemetry.Series{Name: "conflict-rate"},
		Util:         telemetry.Series{Name: "util"},
		Goodput:      telemetry.Series{Name: "goodput"},
		GateQueue:    telemetry.Series{Name: "gate-queue"},
		cfgLabel: fmt.Sprintf("N=%d proto=%v D=%d", cfg.Terminals, cfg.Protocol,
			cfg.DBSize),
	}
}

func (r *Result) recordCommit(now, resp, gateResp float64, attempts int, warmUp float64) {
	if now < warmUp {
		return
	}
	r.Commits++
	r.RespStats.Add(resp)
	r.GateWaitStats.Add(resp - gateResp)
	r.AttemptsStats.Add(float64(attempts))
}

func (r *Result) recordAbort(now, cpuWasted float64, warmUp float64) {
	if now < warmUp {
		return
	}
	r.Aborts++
	r.WastedCPU += cpuWasted
}

func (r *Result) recordInterval(now float64, s core.Sample, bound, util, goodput, queueLen, warmUp float64) {
	r.Throughput.Add(now, s.Throughput)
	r.Load.Add(now, s.Load)
	r.Bound.Add(now, bound)
	r.Resp.Add(now, s.RespTime)
	r.ConflictRate.Add(now, s.ConflictRate)
	r.Util.Add(now, util)
	r.Goodput.Add(now, goodput)
	r.GateQueue.Add(now, queueLen)
	if now >= warmUp {
		r.UsefulCPU += goodput // accumulated below in seal via series; see note
	}
}

func (r *Result) seal(s *System) {
	r.CCStats = s.proto.Stats()
	r.CPUUtil = s.cpu.Utilization()
	r.Duration = s.cfg.Duration
	r.WarmUp = s.cfg.WarmUp
	// UsefulCPU accumulated goodput fractions per interval; convert to CPU
	// seconds: each interval contributed goodput·(CPUs·Δt).
	r.UsefulCPU *= float64(s.cfg.CPUs) * s.cfg.MeasureEvery
}

// Displacements returns how many transactions were displaced (§4.3 option
// ii).
func (r *Result) Displacements() uint64 { return r.displacements }

// MeanThroughput returns the post-warm-up mean committed throughput.
func (r *Result) MeanThroughput() float64 {
	return float64(r.Commits) / (r.Duration - r.WarmUp)
}

// MeanResp returns the post-warm-up mean response time (0 when nothing
// committed).
func (r *Result) MeanResp() float64 { return r.RespStats.Mean() }

// AbortRatio returns aborts per commit (∞-safe: 0 when no commits).
func (r *Result) AbortRatio() float64 {
	if r.Commits == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(r.Commits)
}

// WastedFraction returns wasted CPU over total consumed CPU.
func (r *Result) WastedFraction() float64 {
	total := r.WastedCPU + r.UsefulCPU
	if total == 0 {
		return 0
	}
	return r.WastedCPU / total
}

// SteadyUtil returns the post-warm-up mean CPU utilization.
func (r *Result) SteadyUtil() float64 { return r.Util.MeanAfter(r.WarmUp) }

// SteadyLoad returns the post-warm-up mean active concurrency level.
func (r *Result) SteadyLoad() float64 { return r.Load.MeanAfter(r.WarmUp) }

// Summary renders a human-readable digest.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run[%s] T=%.1f/s n=%.0f resp=%.3fs aborts/commit=%.2f wastedCPU=%.0f%% util=%.0f%%",
		r.cfgLabel, r.MeanThroughput(), r.SteadyLoad(), r.MeanResp(), r.AbortRatio(),
		r.WastedFraction()*100, r.SteadyUtil()*100)
	return b.String()
}
