package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tpctl/loadctl/internal/reqtrace"
)

// client is the load generator: C worker goroutines, each owning one
// keep-alive connection, all in this process.
//
// It speaks HTTP/1.1 over the socket itself rather than through
// net/http's client. That client costs more CPU per request than the
// server under test and hands every request across three goroutines; on a
// box where client and servers share the cores, its scheduling noise was
// the largest part of the run-to-run spread. One goroutine writing a
// prebuilt request and parsing the answer keeps the generator's share of
// what is measured small and steady. The servers' side stays net/http.
type client struct {
	target string
	kinds  []kind
	cum    []int   // cumulative kind weights
	wires  []*wire // one per worker
	traced bool    // mint and send X-Loadctl-Trace IDs
	seed   uint64
	nextID atomic.Uint64
	// tally counts every request issued, warm-up included: the server-side
	// counters are reconciled against it.
	tally tally
}

// tally is the client's view of every request it ever sent to a topology.
type tally struct {
	mu          sync.Mutex
	sent        uint64
	byStatus    map[int]uint64 // 0 is a transport error
	uncommitted uint64         // 200s whose body did not say "status":"committed"
}

func (t *tally) add(samples []sample, uncommitted uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byStatus == nil {
		t.byStatus = make(map[int]uint64)
	}
	t.sent += uint64(len(samples))
	t.uncommitted += uncommitted
	for _, s := range samples {
		t.byStatus[int(s.status)]++
	}
}

func newClient(target string, kinds []kind, traced bool, seed uint64) *client {
	c := &client{target: target, kinds: kinds, traced: traced, seed: seed}
	// IDs are unique within the run and never zero; the seed keeps two
	// runs' IDs apart.
	c.nextID.Store(seed<<32 | 1<<31)
	sum := 0
	for _, k := range kinds {
		sum += k.weight
		c.cum = append(c.cum, sum)
	}
	for range conns() {
		c.wires = append(c.wires, &wire{client: c})
	}
	return c
}

func (c *client) close() {
	for _, w := range c.wires {
		w.hangUp()
	}
}

// pickKind draws a request kind by weight.
func (c *client) pickKind(rng *rand.Rand) uint8 {
	if len(c.cum) == 1 {
		return 0
	}
	x := rng.IntN(c.cum[len(c.cum)-1])
	for i, hi := range c.cum {
		if x < hi {
			return uint8(i)
		}
	}
	return 0
}

// wire is one worker's keep-alive connection.
type wire struct {
	client *client
	conn   net.Conn
	br     *bufio.Reader
	out    []byte // request scratch
	body   []byte // response body scratch
}

func (w *wire) hangUp() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

var committedTag = []byte(`"status":"committed"`)

// do sends one POST /txn and reads the whole answer. It returns the HTTP
// status (0 for a transport or protocol error, after which the connection
// is re-dialled) and whether the body reported a commit.
func (w *wire) do(k uint8, id uint64) (status uint16, committed bool) {
	status, committed, err := w.roundTrip(k, id)
	if err != nil {
		w.hangUp()
		return 0, false
	}
	return status, committed
}

func (w *wire) roundTrip(k uint8, id uint64) (uint16, bool, error) {
	if w.conn == nil {
		conn, err := net.DialTimeout("tcp", w.client.target, 5*time.Second)
		if err != nil {
			return 0, false, err
		}
		w.conn, w.br = conn, bufio.NewReaderSize(conn, 4096)
	}
	b := append(w.out[:0], "POST /txn?"...)
	b = append(b, w.client.kinds[k].query...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, w.client.target...)
	b = append(b, "\r\nContent-Length: 0\r\n"...)
	if id != 0 {
		b = append(b, reqtrace.Header+": "...)
		b = append(b, reqtrace.FormatID(id)...)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	w.out = b
	_ = w.conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := w.conn.Write(b); err != nil {
		return 0, false, err
	}

	// Status line, then headers up to the blank line. Every /txn answer is
	// small and written in one piece, so net/http frames it with a
	// Content-Length; anything else is a protocol error here.
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, fmt.Errorf("bad status line %q", line)
	}
	length, hangUp := -1, false
	for {
		line, err := w.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Connection")) && bytes.EqualFold(value, []byte("close")):
			hangUp = true
		}
	}
	if length < 0 || length > 1<<16 {
		return 0, false, fmt.Errorf("answer without a usable Content-Length (%d)", length)
	}
	if cap(w.body) < length {
		w.body = make([]byte, length)
	}
	body := w.body[:length]
	if _, err := io.ReadFull(w.br, body); err != nil {
		return 0, false, err
	}
	if hangUp {
		w.hangUp()
	}
	return uint16(code), bytes.Contains(body, committedTag), nil
}

func (c *client) mintID() uint64 {
	if !c.traced {
		return 0
	}
	return c.nextID.Add(1)
}

// phase is what one timed phase recorded.
type phase struct {
	samples []sample
	elapsed time.Duration
}

func (p phase) count(status uint16) int {
	n := 0
	for _, s := range p.samples {
		if s.status == status {
			n++
		}
	}
	return n
}

// runClosed is the closed loop: each of the C workers sends its next
// request as soon as the previous answer is read, with no think time. It
// stops after dur, or, when count > 0, once count requests were issued
// (the warm-up). salt separates the phases' random streams.
func (c *client) runClosed(ctx context.Context, salt uint64, dur time.Duration, count int64) phase {
	var (
		wg          sync.WaitGroup
		issued      atomic.Int64
		uncommitted atomic.Uint64
		perWorker   = make([][]sample, conns())
	)
	start := time.Now()
	for w := range perWorker {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(c.seed, salt<<8|uint64(w)))
			out := make([]sample, 0, 1<<16)
			for ctx.Err() == nil {
				if count > 0 {
					if issued.Add(1) > count {
						break
					}
				} else if time.Since(start) >= dur {
					break
				}
				k, id := c.pickKind(rng), c.mintID()
				t0 := time.Since(start)
				status, ok := c.wires[w].do(k, id)
				if status == http.StatusOK && !ok {
					uncommitted.Add(1)
				}
				out = append(out, sample{id: id, start: int64(t0), lat: int64(time.Since(start) - t0), kind: k, status: status})
			}
			perWorker[w] = out
		}()
	}
	wg.Wait()
	ph := phase{elapsed: time.Since(start)}
	for _, s := range perWorker {
		ph.samples = append(ph.samples, s...)
	}
	c.tally.add(ph.samples, uncommitted.Load())
	return ph
}

// runOpen is the open loop: arrivals follow a seeded Poisson process at
// rate tx/s for dur, whatever the system does. Every request is timed from
// the moment it was due; when all C connections are busy the arrivals queue
// here, in the client, and that wait is part of their latency.
func (c *client) runOpen(ctx context.Context, salt uint64, rate float64, dur time.Duration) phase {
	rng := rand.New(rand.NewPCG(c.seed, salt<<8))
	var samples []sample
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		samples = append(samples, sample{start: int64(t * 1e9), kind: c.pickKind(rng)})
	}
	var (
		wg          sync.WaitGroup
		next        atomic.Int64
		uncommitted atomic.Uint64
	)
	start := time.Now()
	for _, wire := range c.wires {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(samples)) {
					return
				}
				s := &samples[i]
				sleepUntil(start, time.Duration(s.start))
				s.id = c.mintID()
				sent := int64(time.Since(start))
				status, ok := wire.do(s.kind, s.id)
				if status == http.StatusOK && !ok {
					uncommitted.Add(1)
				}
				s.lag, s.lat, s.status = sent-s.start, int64(time.Since(start))-s.start, status
			}
		}()
	}
	wg.Wait()
	issued := min(next.Load(), int64(len(samples)))
	ph := phase{samples: samples[:issued], elapsed: time.Since(start)}
	c.tally.add(ph.samples, uncommitted.Load())
	return ph
}

// sleepUntil blocks until due after start. time.Sleep will not do: for a
// wait under a millisecond the Go runtime parks in epoll with millisecond
// granularity and comes back about 1 ms late, which is five loopback round
// trips. nanosleep(2) on the calling thread, with the thread's timer slack
// lowered from the default 50 µs to the minimum, comes back 20–60 µs late.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		wait := due - time.Since(start)
		if wait <= 0 {
			return
		}
		// Slack is per thread and goroutines move between threads, so it
		// is set before each sleep; the call costs well under a µs.
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal) just loops
	}
}
