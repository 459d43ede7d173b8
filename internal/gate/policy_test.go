package gate

import (
	"math"
	"slices"
	"testing"
)

// The §4.3 gate as the simulator drives it: a one-class Policy whose
// waiters are plain values. These tests keep the names they had when
// they covered the deleted simulator gate.

// oneClassPolicy returns a one-class pool-mode policy and the order in
// which its pump handed out slots.
func oneClassPolicy(t *testing.T, limit float64) (*Policy[int], *[]int) {
	t.Helper()
	var order []int
	p, err := NewPolicy([]ClassSpec{{Name: "default"}}, limit, func(w int) { order = append(order, w) })
	if err != nil {
		t.Fatal(err)
	}
	return p, &order
}

// arrive is the simulator's submit of waiters 0..n-1: admit at once, or
// queue FCFS. It returns how many were admitted at once.
func arrive(p *Policy[int], n int) int {
	admitted := 0
	for w := 0; w < n; w++ {
		if p.Admit(0) {
			admitted++
		} else {
			p.Enqueue(0, w)
		}
	}
	return admitted
}

// displace is the simulator's §4.3 option (ii): install limit, then
// requeue each excess waiter at the head and free its slot, newest first.
func displace(p *Policy[int], limit float64) {
	excess := p.Active() - int(math.Floor(limit))
	p.SetPoolLimit(limit)
	for i := 0; i < excess; i++ {
		p.PushFront(0, p.Active()-1)
		p.Depart(0)
	}
}

func TestGateAdmitsUnderLimit(t *testing.T) {
	p, _ := oneClassPolicy(t, 2)
	if n := arrive(p, 5); n != 2 || p.Active() != 2 || p.Queued() != 3 {
		t.Fatalf("admitted=%d active=%d queued=%d, want 2/2/3", n, p.Active(), p.Queued())
	}
}

func TestGateFCFSOrder(t *testing.T) {
	p, order := oneClassPolicy(t, 1)
	arrive(p, 5)
	for i := 0; i < 5; i++ {
		p.Depart(0)
	}
	if want := []int{1, 2, 3, 4}; !slices.Equal(*order, want) {
		t.Fatalf("admission order %v, want FCFS %v", *order, want)
	}
}

func TestGateDepartAdmitsNext(t *testing.T) {
	p, order := oneClassPolicy(t, 1)
	arrive(p, 2)
	p.Depart(0)
	if !slices.Equal(*order, []int{1}) || p.Active() != 1 {
		t.Fatalf("departure admitted %v, active %d; want [1], 1", *order, p.Active())
	}
}

func TestGateRaiseLimitDrainsQueue(t *testing.T) {
	p, order := oneClassPolicy(t, 1)
	arrive(p, 6)
	p.SetPoolLimit(4)
	if len(*order) != 3 || p.Active() != 4 || p.Queued() != 2 {
		t.Fatalf("after raise: pumped %v, active %d, queued %d; want 3, 4, 2", *order, p.Active(), p.Queued())
	}
}

func TestGateLowerLimitWithoutDisplacement(t *testing.T) {
	p, _ := oneClassPolicy(t, 5)
	arrive(p, 5)
	p.SetPoolLimit(2)
	// §4.3 option (i): the excess drains by departures.
	if p.Active() != 5 {
		t.Fatalf("active = %d, want 5 (no displacement)", p.Active())
	}
	p.Depart(0)
	p.Depart(0)
	p.Depart(0)
	if arrive(p, 1) != 0 || p.Active() != 2 {
		t.Fatalf("active = %d; a new arrival at the limit must queue", p.Active())
	}
}

func TestGateDisplacement(t *testing.T) {
	p, order := oneClassPolicy(t, 5)
	arrive(p, 5)
	displace(p, 2)
	if c := p.classes[0]; p.Active() != 2 || p.Queued() != 3 || len(*order) != 0 ||
		c.arrivals != 8 || c.arrivals != c.admitted+uint64(len(c.queue)) {
		t.Fatalf("active=%d queued=%d readmitted %v, want 2/3/none; a displaced waiter re-arrives: %+v",
			p.Active(), p.Queued(), *order, *c)
	}

	// With a fractional n* the departure that frees the last victim's
	// slot readmits it at once: 2 < 2.7.
	p, order = oneClassPolicy(t, 5)
	arrive(p, 5)
	displace(p, 2.7)
	if p.Active() != 3 || p.Queued() != 2 || !slices.Equal(*order, []int{2}) {
		t.Fatalf("n*=2.7: active=%d queued=%d readmitted %v, want 3/2/[2]", p.Active(), p.Queued(), *order)
	}
}

func TestGateReenterOutranksArrivals(t *testing.T) {
	p, order := oneClassPolicy(t, 0) // everything queues
	arrive(p, 2)
	p.PushFront(0, 9)
	p.SetPoolLimit(10)
	if want := []int{9, 0, 1}; !slices.Equal(*order, want) {
		t.Fatalf("order = %v, want %v", *order, want)
	}
}

func TestGateInfiniteLimit(t *testing.T) {
	p, _ := oneClassPolicy(t, math.Inf(1))
	if n := arrive(p, 1000); n != 1000 {
		t.Fatalf("uncontrolled policy admitted %d/1000", n)
	}
}

func TestGateFractionalLimit(t *testing.T) {
	// n < n* with n* = 2.7 admits 3 transactions (0,1,2 < 2.7).
	p, _ := oneClassPolicy(t, 2.7)
	if n := arrive(p, 5); n != 3 {
		t.Fatalf("admitted = %d with limit 2.7, want 3", n)
	}
}

// An arrival that waited is counted once as an arrival and once as an
// admission, and raises the queue high-water mark.
func TestGateWaitStats(t *testing.T) {
	p, _ := oneClassPolicy(t, 1)
	arrive(p, 2)
	p.Depart(0)
	if c := p.classes[0]; c.arrivals != 2 || c.admitted != 2 || c.queueMax != 1 || len(c.queue) != 0 {
		t.Fatalf("counters = %+v, want 2 arrivals, 2 admitted, queue max 1", *c)
	}
}

func TestGateDepartUnderflowPanics(t *testing.T) {
	p, _ := oneClassPolicy(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Depart(0)
}

func TestGateNaNLimitPanics(t *testing.T) {
	if _, err := NewPolicy([]ClassSpec{{Name: "a"}}, math.NaN(), func(int) {}); err == nil {
		t.Fatal("NaN pool limit accepted")
	}
	p, _ := oneClassPolicy(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.SetPoolLimit(math.NaN())
}

// Arrivals, departures and limit changes without displacement never
// admit past the current limit: active only grows while below it.
func TestGateInvariantActiveNeverExceedsLimit(t *testing.T) {
	p, _ := oneClassPolicy(t, 3)
	for i := 0; i < 200; i++ {
		before := p.Active()
		switch i % 4 {
		case 0, 1:
			arrive(p, 1)
		case 2:
			if p.Active() > 0 {
				p.Depart(0)
			}
		case 3:
			p.SetPoolLimit(float64(1 + i%7))
		}
		if p.Active() > before && float64(p.Active()) > math.Ceil(p.PoolLimit()) {
			t.Fatalf("step %d: active %d grew past limit %v", i, p.Active(), p.PoolLimit())
		}
	}
}
