// Package telemetry is the shared "sense" layer of the repository: every
// tier that measures itself — the transaction server, the cluster routing
// proxy, and the simulation harness — builds on the primitives here
// instead of growing its own copy.
//
// The package owns:
//
//   - Counters: named monotone uint64 counters striped over cache-line-
//     padded atomic cells, so hot paths count without sharing cache lines
//     or taking locks, and folds aggregate without stopping writers;
//   - Histogram: a lock-free log-bucketed latency histogram with
//     p50/p95/p99 quantiles accurate to about ±10%;
//   - the ∫n(t)dt load integrator: reconstructing the time-averaged
//     in-flight population of a measurement interval from monotone
//     per-stripe entry/exit timestamp sums (see CloseInterval);
//   - interval fold/snapshot: CloseInterval turns a (current, previous)
//     fold pair into the closed-interval statistics and the core.Sample a
//     controller consumes;
//   - the Prometheus+JSON dual exporter: PromText renders the text
//     exposition format, WriteJSON the JSON form, and MetricsEndpoint
//     implements the format-negotiation contract (/metrics default
//     Prometheus, ?format=json for the snapshot, errors as 400) shared by
//     loadctld and loadctlproxy;
//   - the simulation-era streaming statistics and time series (Welford,
//     TimeWeighted, Series) of the simulator and the experiment harness.
//
// The race discipline for Counters is documented on the type: folds read
// counters in schema order, so writers maintaining cross-counter
// invariants (a count and its timestamp sum, an entry and its exit) must
// order their writes against it. All counters are monotone — a fold racing
// a writer can skew one value between two adjacent intervals but never
// lose or double-count it.
package telemetry
