// Package loadctl is an adaptive load-control library for transaction
// processing systems, reproducing Heiss & Wagner, "Adaptive Load Control in
// Transaction Processing Systems", Proc. 17th VLDB, Barcelona, 1991.
//
// Transaction systems thrash: beyond an optimal concurrency level, adding
// work *decreases* throughput, because contention (lock waits or
// certification aborts) converts extra load into wasted resources. This
// package provides feedback controllers that track the throughput-optimal
// multiprogramming limit at run time, an admission gate that enforces it —
// both for real goroutine workloads and inside the included discrete-event
// simulator of the paper's evaluation model — and the measurement
// machinery connecting them.
//
// # Controlling a live Go system
//
// Wrap the work you want throttled in Acquire/Release on an AdaptiveGate
// and report completions; the controller periodically re-estimates the
// optimum and adjusts the limit:
//
//	gate := loadctl.NewAdaptiveGate(loadctl.AdaptiveGateConfig{
//		Controller: loadctl.NewPA(loadctl.DefaultPAConfig()),
//		Interval:   2 * time.Second,
//	})
//	defer gate.Close()
//
//	// per request:
//	if err := gate.Acquire(ctx); err != nil { return err }
//	defer gate.Release()
//	err := doTransaction()
//	gate.Observe(err == nil)
//
// # Serving over the network
//
// Serve exposes the same adaptive admission control as an HTTP transaction
// server (endpoints /txn, /metrics, /controller), executing transactions
// against an in-process store that certifies them optimistically at
// commit:
//
//	err := loadctl.Serve(ctx, loadctl.ServerConfig{Addr: ":8344"})
//
// cmd/loadctld wraps Serve as a binary and cmd/loadgen replays the
// workload schedules against it as open- or closed-loop traffic.
//
// # Reproducing the paper
//
// The simulation model, experiment generators and benchmark harness live in
// internal packages driven by cmd/experiments, cmd/loadsim, cmd/sweep and
// the examples; see DESIGN.md and EXPERIMENTS.md.
package loadctl

import (
	"github.com/tpctl/loadctl/internal/core"
)

// Sample is one measurement-interval observation fed to a controller: the
// realized (load, performance) pair of the paper's §3.
type Sample = core.Sample

// Controller adjusts the concurrency bound n* from interval measurements.
type Controller = core.Controller

// Bounds is the static lower/upper clamp for the bound (§5.1).
type Bounds = core.Bounds

// ISConfig parameterizes the Method of Incremental Steps (§4.1).
type ISConfig = core.ISConfig

// IS is the Incremental Steps hill-climbing controller (§4.1).
type IS = core.IS

// PAConfig parameterizes the Parabola Approximation controller (§4.2).
type PAConfig = core.PAConfig

// PA is the Parabola Approximation controller: recursive least squares
// with exponentially fading memory over P(n) = a0 + a1·n + a2·n² (§4.2).
type PA = core.PA

// RecoveryPolicy selects the countermeasure when the fitted parabola opens
// upward (§5.2).
type RecoveryPolicy = core.RecoveryPolicy

// Recovery policies (§5.2). RecoverSlope is the default.
const (
	RecoverHold  = core.RecoverHold
	RecoverReset = core.RecoverReset
	RecoverSlope = core.RecoverSlope
)

// Static is the fixed-bound controller (the tuning-knob alternative the
// paper's introduction describes).
type Static = core.Static

// TayRule is the k²n/D ≤ 1.5 rule of thumb (Tay et al. 1985).
type TayRule = core.TayRule

// IyerRule steers conflicts-per-transaction to 0.75 (Iyer 1988).
type IyerRule = core.IyerRule

// NewIS returns an Incremental Steps controller; it panics on invalid
// configuration.
func NewIS(cfg ISConfig) *IS { return core.NewIS(cfg) }

// DefaultISConfig returns the tuning used in the paper-reproduction
// experiments.
func DefaultISConfig() ISConfig { return core.DefaultISConfig() }

// NewPA returns a Parabola Approximation controller; it panics on invalid
// configuration.
func NewPA(cfg PAConfig) *PA { return core.NewPA(cfg) }

// DefaultPAConfig returns the tuning used in the paper-reproduction
// experiments.
func DefaultPAConfig() PAConfig { return core.DefaultPAConfig() }

// NewStatic returns a fixed-bound controller.
func NewStatic(n float64) *Static { return core.NewStatic(n) }

// NoControl returns an unbounded controller (admission always open).
func NoControl() *Static { return core.NoControl() }

// NewTayRule returns the Tay et al. rule-of-thumb controller for a database
// of d items whose transaction size is reported by k.
func NewTayRule(d float64, k func(t float64) float64, b Bounds) *TayRule {
	return core.NewTayRule(d, k, b)
}

// NewIyerRule returns the Iyer conflict-rate controller starting at the
// given bound.
func NewIyerRule(initial float64, b Bounds) *IyerRule {
	return core.NewIyerRule(initial, b)
}

// DefaultBounds spans the load axis of the paper's experiments.
func DefaultBounds() Bounds { return core.DefaultBounds() }
