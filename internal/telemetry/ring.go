package telemetry

import "sync/atomic"

// RingWindow snapshots a lock-free overwrite ring — writers claim slot
// pos.Add(1)-1 mod len(slots) and then store into it — oldest entry
// first, for the event ring of internal/obs and the trace ring of
// internal/reqtrace, which share the discipline and so share its one
// subtle part.
//
// Writers that advance during the walk overwrite the oldest slots first,
// so a slot read early may already hold an entry a whole lap newer than
// its neighbours. After the walk the cursor is read again and every slot a
// writer could have reached by then is dropped; what remains is a window
// no wider than the ring. A reader overtaken by a full lap tries again, a
// bounded number of times, and then returns the (empty) window it can
// vouch for. A writer that has claimed a slot but not yet stored leaves
// the previous lap's entry there: the window can be stale by at most one
// lap, never mixed across more.
func RingWindow[T any](pos *atomic.Uint64, slots []atomic.Pointer[T]) []*T {
	const retries = 3
	n := uint64(len(slots))
	seen := make([]*T, n)
	for attempt := 0; ; attempt++ {
		start := pos.Load()
		for i := range seen {
			seen[i] = slots[(start+uint64(i))%n].Load()
		}
		lapped := pos.Load() - start
		if lapped >= n && attempt < retries {
			continue
		}
		out := seen[:0]
		for i := lapped; i < n; i++ {
			if v := seen[i]; v != nil {
				out = append(out, v)
			}
		}
		return out
	}
}
