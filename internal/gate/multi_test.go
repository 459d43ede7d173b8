package gate

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustMulti(t testing.TB, specs []ClassSpec, pool float64) *Multi {
	t.Helper()
	m, err := NewMulti(specs, pool)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	return m
}

func twoClass(t *testing.T, pool float64) *Multi {
	return mustMulti(t, []ClassSpec{
		{Name: "interactive", Weight: 3, Priority: 0},
		{Name: "batch", Weight: 1, Priority: 2},
	}, pool)
}

func TestMultiValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []ClassSpec
		pool  float64
	}{
		{"no classes", nil, 4},
		{"empty name", []ClassSpec{{Name: ""}}, 4},
		{"duplicate", []ClassSpec{{Name: "a"}, {Name: "a"}}, 4},
		{"negative weight", []ClassSpec{{Name: "a", Weight: -1}}, 4},
		{"nan weight", []ClassSpec{{Name: "a", Weight: math.NaN()}}, 4},
		{"nan pool", []ClassSpec{{Name: "a"}}, math.NaN()},
	}
	for _, tc := range cases {
		if _, err := NewMulti(tc.specs, tc.pool); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// oneClass is the live gate loadctl.AdaptiveGate runs on: a one-class
// Multi in pool mode, its class at index 0.
func oneClass(t testing.TB, limit float64) *Multi {
	return mustMulti(t, []ClassSpec{{Name: "default"}}, limit)
}

func TestMultiSingleClassBehavesLikeLive(t *testing.T) {
	m := oneClass(t, 2)
	ci, ok := m.ClassIndex("default")
	if !ok {
		t.Fatal("ClassIndex(default) not found")
	}
	if !m.TryAcquire(ci) || !m.TryAcquire(ci) {
		t.Fatal("two slots should be free")
	}
	if m.TryAcquire(ci) {
		t.Fatal("third TryAcquire should fail at limit 2")
	}
	m.Release(ci)
	if !m.TryAcquire(ci) {
		t.Fatal("released slot should be reusable")
	}
	st := m.Stats()
	if st.Classes[0].Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Classes[0].Rejected)
	}
	agg := m.AggregateStats()
	if agg.Arrivals != agg.Admitted+agg.Rejected+agg.Timeouts {
		t.Fatalf("identity violated: %+v", agg)
	}
}

// A class below its guaranteed share admits even when another class has
// consumed the rest of the pool; the hog cannot borrow past queued demand.
func TestMultiWeightedShareGuarantee(t *testing.T) {
	m := twoClass(t, 4) // shares: interactive 3, batch 1
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")

	// Batch grabs its share and then borrows the idle pool entirely.
	for i := 0; i < 4; i++ {
		if !m.TryAcquire(batch) {
			t.Fatalf("batch borrow %d refused on an idle pool", i)
		}
	}
	// Pool is full: an interactive arrival must queue, not be lost...
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	admitted := make(chan struct{})
	go func() {
		if err := m.Acquire(ctx, inter); err == nil {
			close(admitted)
		}
	}()
	waitCond(t, func() bool { return m.Queued() == 1 })

	// ...and further batch arrivals may not borrow past that waiter.
	if m.TryAcquire(batch) {
		t.Fatal("batch borrowed although interactive demand is queued")
	}

	// The next freed slot goes to interactive (below its share), even
	// though batch releases it.
	m.Release(batch)
	select {
	case <-admitted:
	case <-time.After(2 * time.Second):
		t.Fatal("interactive waiter not admitted after release")
	}
}

// Under overload surplus goes in strict priority order: queued
// interactive (priority 0) is always admitted before queued batch.
func TestMultiStrictPriorityUnderOverload(t *testing.T) {
	m := twoClass(t, 2)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")

	// Fill the pool.
	if !m.TryAcquire(inter) || !m.TryAcquire(batch) {
		t.Fatal("filling the pool failed")
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	start := func(name string, class int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(ctx, class); err != nil {
				t.Errorf("Acquire(%s): %v", name, err)
			}
		}()
	}
	// Queue batch first, then interactive: priority must beat FIFO
	// across classes. Admission order is read from the gate's own
	// counters — goroutine scheduling after wake-up is not ordered.
	start("batch", batch)
	waitCond(t, func() bool { return m.Queued() == 1 })
	start("interactive", inter)
	waitCond(t, func() bool { return m.Queued() == 2 })

	m.Release(inter)
	waitCond(t, func() bool { return m.Queued() == 1 })
	st := m.Stats()
	if got := st.Classes[inter].Admitted; got != 2 {
		t.Fatalf("interactive admitted = %d after first release, want 2 (priority must beat batch's FIFO position)", got)
	}
	if got := st.Classes[batch].Admitted; got != 1 {
		t.Fatalf("batch admitted = %d after first release, want still 1", got)
	}
	m.Release(batch)
	wg.Wait()
}

func TestMultiPerClassModeIndependentLimits(t *testing.T) {
	m := twoClass(t, 4)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")
	m.SetPerClass(true)
	m.SetClassLimit(inter, 1)
	m.SetClassLimit(batch, 2)

	if !m.TryAcquire(inter) {
		t.Fatal("interactive slot 1 refused")
	}
	if m.TryAcquire(inter) {
		t.Fatal("interactive must stop at its own limit 1")
	}
	// Batch capacity is independent of interactive saturation.
	if !m.TryAcquire(batch) || !m.TryAcquire(batch) {
		t.Fatal("batch slots refused below its limit")
	}
	if m.TryAcquire(batch) {
		t.Fatal("batch must stop at its own limit 2")
	}
	if got := m.Limit(); got != 3 {
		t.Fatalf("Limit() in per-class mode = %v, want Σ=3", got)
	}
	// Raising a class limit wakes that class's queue only.
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, inter) }()
	waitCond(t, func() bool { return m.Queued() == 1 })
	m.SetClassLimit(inter, 2)
	if err := <-done; err != nil {
		t.Fatalf("Acquire after SetClassLimit: %v", err)
	}
}

// A waiter timed out behind another class leaves the queue and counts
// one timeout; TestLiveContextCancel is the same behind its own class.
func TestMultiAcquireTimeoutKeepsIdentity(t *testing.T) {
	m := twoClass(t, 1)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")
	if !m.TryAcquire(inter) {
		t.Fatal("fill failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Acquire(ctx, batch); err == nil {
		t.Fatal("Acquire should have timed out")
	}
	if q := m.Queued(); q != 0 {
		t.Fatalf("cancelled waiter still queued: %d", q)
	}
	m.Release(inter)
	for _, c := range m.Stats().Classes {
		if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
			t.Fatalf("class %s identity violated: %+v", c.Name, c)
		}
	}
	if got := m.AggregateStats().Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

// Hammer the gate from many goroutines across classes and mode/limit
// changes; the per-class identity must hold at quiescence (run with -race).
func TestMultiRaceIdentity(t *testing.T) {
	m := twoClass(t, 8)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 16; g++ {
		class := inter
		if g%2 == 0 {
			class = batch
		}
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%3 == 0 {
					if m.TryAcquire(class) {
						m.Release(class)
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				err := m.Acquire(ctx, class)
				cancel()
				if err == nil {
					m.Release(class)
				}
			}
		}(class)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		limits := []float64{2, 8, 1, 16, 4}
		for i := 0; !stop.Load(); i++ {
			m.SetPoolLimit(limits[i%len(limits)])
			m.SetPerClass(i%2 == 0)
			m.SetClassLimit(inter, limits[(i+1)%len(limits)])
			m.SetClassLimit(batch, limits[(i+2)%len(limits)])
			time.Sleep(100 * time.Microsecond)
		}
		m.SetPerClass(false)
		m.SetPoolLimit(1e9)
	}()
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("active = %d at quiescence", st.Active)
	}
	for _, c := range st.Classes {
		if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
			t.Fatalf("class %s identity violated: %+v", c.Name, c)
		}
	}
}

// AcquireFast admits only when a slot is free and must count NOTHING on
// refusal — a refused fast probe followed by TryAcquire/Acquire is one
// arrival, counted by whichever call disposes of it.
func TestMultiAcquireFastIdentity(t *testing.T) {
	m := twoClass(t, 1)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")
	if !m.AcquireFast(inter) {
		t.Fatal("free gate must fast-admit")
	}
	if m.AcquireFast(batch) {
		t.Fatal("full gate must not fast-admit")
	}
	st := m.Stats()
	if a := st.Classes[batch].Arrivals; a != 0 {
		t.Fatalf("refused AcquireFast counted %d arrivals, want 0", a)
	}
	if m.TryAcquire(batch) {
		t.Fatal("full gate must not try-admit")
	}
	m.Release(inter)
	st = m.Stats()
	if st.Classes[inter].Arrivals != 1 || st.Classes[inter].Admitted != 1 {
		t.Fatalf("interactive counters off: %+v", st.Classes[inter])
	}
	if st.Classes[batch].Arrivals != 1 || st.Classes[batch].Rejected != 1 {
		t.Fatalf("batch counters off: %+v", st.Classes[batch])
	}
	for _, c := range st.Classes {
		if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
			t.Fatalf("class %s identity violated: %+v", c.Name, c)
		}
	}
}

// The serving fast path's exact calling pattern — AcquireFast, falling
// through to a deadline Acquire on refusal — hammered concurrently with
// pooled-waiter admissions; identity at quiescence (run with -race).
func TestMultiAcquireFastRaceIdentity(t *testing.T) {
	m := twoClass(t, 4)
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 16; g++ {
		class := inter
		if g%2 == 0 {
			class = batch
		}
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			for !stop.Load() {
				if m.AcquireFast(class) {
					m.Release(class)
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				err := m.Acquire(ctx, class)
				cancel()
				if err == nil {
					m.Release(class)
				}
			}
		}(class)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("active = %d at quiescence", st.Active)
	}
	if st.Queued != 0 {
		t.Fatalf("queued = %d at quiescence", st.Queued)
	}
	for _, c := range st.Classes {
		if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
			t.Fatalf("class %s identity violated: %+v", c.Name, c)
		}
	}
}

func TestMultiSetClassWeightUpdatesShares(t *testing.T) {
	m := twoClass(t, 8) // shares: interactive 6, batch 2
	inter, _ := m.ClassIndex("interactive")
	batch, _ := m.ClassIndex("batch")

	m.SetClassWeight(batch, 3) // weights now 3:3 — equal shares of 4
	st := m.Stats()
	if st.Classes[inter].Share != 4 || st.Classes[batch].Share != 4 {
		t.Fatalf("shares after reweight: %v / %v, want 4 / 4",
			st.Classes[inter].Share, st.Classes[batch].Share)
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetClassWeight(%v) did not panic", bad)
				}
			}()
			m.SetClassWeight(batch, bad)
		}()
	}
}

// Reconfiguration under load: weights, class limits, the pool limit and
// the mode all change while waiters sit in the queues. The per-class
// identity Arrivals == Admitted + Rejected + Timeouts + Queued must hold
// in every consistent snapshot (Stats is taken under the gate mutex) and
// at quiescence — run with -race.
func TestMultiReconfigureRaceIdentity(t *testing.T) {
	m := mustMulti(t, []ClassSpec{
		{Name: "interactive", Weight: 3, Priority: 0},
		{Name: "readonly", Weight: 2, Priority: 1},
		{Name: "batch", Weight: 1, Priority: 2},
	}, 4)
	classes := []int{0, 1, 2}
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Acquirers: timeouts long enough that queues stay populated while
	// the reconfigurator runs, short enough that shedding happens too.
	for g := 0; g < 12; g++ {
		class := classes[g%len(classes)]
		wg.Add(1)
		go func(class int, g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%4 == 0 {
					if m.TryAcquire(class) {
						time.Sleep(50 * time.Microsecond)
						m.Release(class)
					}
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(1+g%5)*time.Millisecond)
				err := m.Acquire(ctx, class)
				cancel()
				if err == nil {
					time.Sleep(50 * time.Microsecond)
					m.Release(class)
				}
			}
		}(class, g)
	}

	// The reconfigurator: every knob the gate has, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		weights := []float64{1, 4, 0.5, 8, 2}
		limits := []float64{1, 6, 2, 12, 3}
		for i := 0; !stop.Load(); i++ {
			m.SetClassWeight(classes[i%3], weights[i%len(weights)])
			m.SetClassLimit(classes[(i+1)%3], limits[i%len(limits)])
			m.SetPoolLimit(limits[(i+2)%len(limits)])
			m.SetPerClass(i%3 == 0)
			time.Sleep(200 * time.Microsecond)
		}
		m.SetPerClass(false)
		m.SetPoolLimit(1e9)
	}()

	// Mid-flight identity checker: Stats() is a consistent snapshot, so the
	// identity must hold mid-flight, queues and all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			st := m.Stats()
			for _, c := range st.Classes {
				if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
					t.Errorf("live identity violated for %s: %+v", c.Name, c)
					stop.Store(true)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	st := m.Stats()
	if st.Active != 0 {
		t.Fatalf("active = %d at quiescence", st.Active)
	}
	if st.Queued != 0 {
		t.Fatalf("queued = %d at quiescence", st.Queued)
	}
	for _, c := range st.Classes {
		if c.Arrivals != c.Admitted+c.Rejected+c.Timeouts+uint64(c.Queued) {
			t.Fatalf("class %s identity violated at quiescence: %+v", c.Name, c)
		}
		if c.Arrivals == 0 {
			t.Fatalf("class %s saw no traffic — the test exercised nothing", c.Name)
		}
	}
}

// --- one-class Multi: the live gate --------------------------------------
//
// The §4.3 behaviours of a single adjustable limit, on the one-class Multi
// that loadctl.AdaptiveGate runs. These tests keep the names they had when
// they covered the deleted single-class Live gate.

func TestLiveAcquireRelease(t *testing.T) {
	m := oneClass(t, 2)
	ctx := context.Background()
	if err := m.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if m.Active() != 2 {
		t.Fatalf("active = %d, want 2", m.Active())
	}
	if m.TryAcquire(0) {
		t.Fatal("TryAcquire should fail at the limit")
	}
	m.Release(0)
	if !m.TryAcquire(0) {
		t.Fatal("TryAcquire should succeed after release")
	}
	m.Release(0)
	m.Release(0)
	if m.Active() != 0 {
		t.Fatalf("active = %d after releasing every slot", m.Active())
	}
}

// Non-blocking admission failures are counted as rejections, and a
// recovered slot does not rewrite them.
func TestLiveRejectedCounter(t *testing.T) {
	m := oneClass(t, 1)
	if !m.TryAcquire(0) {
		t.Fatal("first TryAcquire should succeed")
	}
	for i := 0; i < 3; i++ {
		if m.TryAcquire(0) {
			t.Fatal("TryAcquire above the limit should fail")
		}
	}
	st := m.AggregateStats()
	if st.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", st.Rejected)
	}
	if st.Admitted != 1 || st.Arrivals != 4 {
		t.Fatalf("Admitted/Arrivals = %d/%d, want 1/4", st.Admitted, st.Arrivals)
	}
	m.Release(0)
	if !m.TryAcquire(0) {
		t.Fatal("TryAcquire after Release should succeed")
	}
	if got := m.AggregateStats().Rejected; got != 3 {
		t.Fatalf("Rejected after recovery = %d, want 3", got)
	}
}

func TestLiveContextCancel(t *testing.T) {
	m := oneClass(t, 1)
	if err := m.Acquire(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Acquire(ctx, 0); err == nil {
		t.Fatal("expected context error")
	}
	if q := m.Queued(); q != 0 {
		t.Fatalf("cancelled waiter still queued: %d", q)
	}
	m.Release(0)
	st := m.AggregateStats()
	if st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	if st.Arrivals != st.Admitted+st.Rejected+st.Timeouts {
		t.Fatalf("identity violated: %+v", st)
	}
}

func TestLiveBlocksAtLimit(t *testing.T) {
	m := oneClass(t, 1)
	ctx := context.Background()
	if err := m.Acquire(ctx, 0); err != nil {
		t.Fatal(err)
	}
	entered := make(chan error, 1)
	go func() { entered <- m.Acquire(ctx, 0) }()
	waitCond(t, func() bool { return m.Queued() == 1 })
	select {
	case <-entered:
		t.Fatal("second acquire should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	m.Release(0)
	if err := <-entered; err != nil {
		t.Fatalf("release did not admit the waiter: %v", err)
	}
	m.Release(0)
}

func TestLiveSetLimitWakesWaiters(t *testing.T) {
	m := oneClass(t, 0)
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if m.Acquire(context.Background(), 0) == nil {
				admitted.Add(1)
			}
		}()
	}
	waitCond(t, func() bool { return m.Queued() == 5 })
	m.SetPoolLimit(3)
	waitCond(t, func() bool { return admitted.Load() == 3 })
	if m.Active() != 3 || m.Queued() != 2 {
		t.Fatalf("active=%d queued=%d, want 3/2", m.Active(), m.Queued())
	}
	m.SetPoolLimit(10)
	wg.Wait()
	if admitted.Load() != 5 {
		t.Fatalf("admitted = %d, want 5", admitted.Load())
	}
}

// Holders never outnumber the largest limit installed while SetPoolLimit
// oscillates under 16 hammering goroutines.
func TestLiveNeverExceedsLimit(t *testing.T) {
	m := oneClass(t, 4)
	var inside, maxSeen atomic.Int32
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if m.Acquire(context.Background(), 0) != nil {
					return
				}
				v := inside.Add(1)
				for {
					old := maxSeen.Load()
					if v <= old || maxSeen.CompareAndSwap(old, v) {
						break
					}
				}
				inside.Add(-1)
				m.Release(0)
			}
		}()
	}
	limits := []float64{2, 4, 1, 3}
	for i := 0; i < 100; i++ {
		m.SetPoolLimit(limits[i%len(limits)])
		time.Sleep(250 * time.Microsecond)
	}
	m.SetPoolLimit(4)
	stop.Store(true)
	wg.Wait()
	if got := maxSeen.Load(); got > 4 {
		t.Fatalf("max concurrent holders %d exceeded the largest limit 4", got)
	}
}

func TestLiveReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	oneClass(t, 1).Release(0)
}

func TestLiveInfiniteLimit(t *testing.T) {
	m := oneClass(t, math.Inf(1))
	for i := 0; i < 100; i++ {
		if !m.TryAcquire(0) {
			t.Fatal("infinite gate refused admission")
		}
	}
	if !math.IsInf(m.Limit(), 1) {
		t.Fatalf("limit = %v, want +Inf", m.Limit())
	}
}

func TestLiveFCFS(t *testing.T) {
	m := oneClass(t, 0)
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stagger arrival so queue order is deterministic.
			time.Sleep(time.Duration(i*10) * time.Millisecond)
			if m.Acquire(context.Background(), 0) != nil {
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			m.Release(0)
		}()
	}
	waitCond(t, func() bool { return m.Queued() == 5 })
	m.SetPoolLimit(1) // one slot, handed on by each release
	wg.Wait()
	for i, v := range order {
		if v != i {
			t.Fatalf("admission order %v not FCFS", order)
		}
	}
}

// Waiters queued in a known order against a closed gate are admitted
// strictly in that order while the limit opens step by step, and a shrink
// in between neither admits nor reorders anyone.
func TestLiveFCFSOrderUnderLimitChanges(t *testing.T) {
	const n = 32
	m := oneClass(t, 0)
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	recorded := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(order)
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Acquire(context.Background(), 0); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
		// Waiter i queues before waiter i+1 arrives.
		waitCond(t, func() bool { return m.Queued() == i+1 })
	}
	// One grant per SetPoolLimit keeps the recording order deterministic.
	for i := 1; i <= n; i++ {
		m.SetPoolLimit(float64(i))
		waitCond(t, func() bool { return recorded() == i })
		if i%5 == 0 {
			// Nobody releases, so a limit below the active count must
			// leave the queue untouched.
			m.SetPoolLimit(float64(i - 3))
			time.Sleep(time.Millisecond)
			if got := recorded(); got != i {
				t.Fatalf("shrink admitted extra waiters: %d recorded, want %d", got, i)
			}
		}
	}
	wg.Wait()
	for i, id := range order {
		if id != i {
			t.Fatalf("admission order %v violates FCFS at position %d", order, i)
		}
	}
}

// Lowering the limit below the active count admits nobody until enough
// releases drain the gate under the new limit.
func TestLiveShrinkBelowActive(t *testing.T) {
	m := oneClass(t, 4)
	for i := 0; i < 4; i++ {
		if !m.TryAcquire(0) {
			t.Fatalf("setup acquire %d failed", i)
		}
	}
	m.SetPoolLimit(2)
	waitErr := make(chan error, 1)
	go func() { waitErr <- m.Acquire(context.Background(), 0) }()
	waitCond(t, func() bool { return m.Queued() == 1 })
	m.Release(0) // active 3, still above limit 2
	m.Release(0) // active 2, at the limit
	select {
	case <-waitErr:
		t.Fatal("waiter admitted while active was not below the shrunken limit")
	case <-time.After(10 * time.Millisecond):
	}
	m.Release(0) // active 1 < 2: now the waiter fits
	if err := <-waitErr; err != nil {
		t.Fatalf("waiter failed: %v", err)
	}
}

func TestLiveAcquireCancelVsSetLimit(t *testing.T) {
	hammerCancelVsLimit(t, 4, 0, 50*time.Microsecond)
}

// Mixing in TryAcquire makes Rejected part of the identity as well.
func TestLiveCancelAdmitCounterIdentity(t *testing.T) {
	hammerCancelVsLimit(t, 3, 7, 40*time.Microsecond)
}

// hammerCancelVsLimit races SetPoolLimit wake-ups (limits cycling through
// 0..levels-1) against 16 workers whose Acquires carry nearly expired
// deadlines below maxWait; every tryEvery-th call (0 = none) is a
// TryAcquire instead. After draining at +Inf, the gate must hold no slot
// and no waiter, and each counter must equal what the callers observed: a
// slot granted concurrently with cancellation is handed back and counted
// as a timeout, never as an admission. Run with -race.
func hammerCancelVsLimit(t *testing.T, levels, tryEvery int, maxWait time.Duration) {
	m := oneClass(t, 0)
	var (
		wg                          sync.WaitGroup
		gotSlot, gaveUp, tryOK, rej atomic.Int64
		stop                        atomic.Bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			m.SetPoolLimit(float64(i % levels))
		}
		m.SetPoolLimit(math.Inf(1)) // drain everyone still queued
	}()
	const workers, iters = 16, 250
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if tryEvery > 0 && i%tryEvery == 0 {
					if m.TryAcquire(0) {
						tryOK.Add(1)
						m.Release(0)
					} else {
						rej.Add(1)
					}
					continue
				}
				d := time.Duration(w+i) * time.Microsecond % maxWait
				ctx, cancel := context.WithTimeout(context.Background(), d)
				err := m.Acquire(ctx, 0)
				cancel()
				if err == nil {
					gotSlot.Add(1)
					m.Release(0)
				} else {
					gaveUp.Add(1)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if a, q := m.Active(), m.Queued(); a != 0 || q != 0 {
		t.Fatalf("leaked state: active=%d queued=%d", a, q)
	}
	st := m.AggregateStats()
	if want := uint64(gotSlot.Load() + tryOK.Load()); st.Admitted != want {
		t.Fatalf("Admitted = %d, but callers observed %d successful acquires", st.Admitted, want)
	}
	if st.Timeouts != uint64(gaveUp.Load()) {
		t.Fatalf("Timeouts = %d, but callers observed %d abandoned acquires", st.Timeouts, gaveUp.Load())
	}
	if st.Rejected != uint64(rej.Load()) {
		t.Fatalf("Rejected = %d, but callers observed %d refusals", st.Rejected, rej.Load())
	}
	if st.Arrivals != workers*iters || st.Arrivals != st.Admitted+st.Rejected+st.Timeouts {
		t.Fatalf("identity broken: %+v for %d calls", st, workers*iters)
	}
}

func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// BenchmarkMultiFast is the uncontended admission every serving workload
// but a binding limit takes: AcquireFast + Release, 0 allocs/op.
func BenchmarkMultiFast(b *testing.B) {
	m := oneClass(b, 64)
	b.ReportAllocs()
	for b.Loop() {
		if !m.AcquireFast(0) {
			b.Fatal("uncontended AcquireFast refused")
		}
		m.Release(0)
	}
}

// BenchmarkMultiHandoff is the contended path: two goroutines take turns
// on a limit of one, so an Acquire often queues and is handed the slot.
func BenchmarkMultiHandoff(b *testing.B) {
	m := oneClass(b, 1)
	ctx := context.Background()
	cycle := func() {
		if err := m.Acquire(ctx, 0); err != nil {
			b.Error(err)
		}
		m.Release(0)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				cycle()
			}
		}
	}()
	b.ReportAllocs()
	for b.Loop() {
		cycle()
	}
	close(stop)
	<-done
}
