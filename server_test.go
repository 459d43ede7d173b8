package loadctl_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/tpctl/loadctl"
	"github.com/tpctl/loadctl/internal/link"
)

// TestPublicServerAPI exercises the exported front-end surface: build a
// server from the public config, run transactions through the full
// admission → execution → metrics path, and switch the controller live.
func TestPublicServerAPI(t *testing.T) {
	paCfg := loadctl.DefaultPAConfig()
	paCfg.Bounds = loadctl.Bounds{Lo: 2, Hi: 32}
	paCfg.Initial = 16
	srv, err := loadctl.NewServer(loadctl.ServerConfig{
		Controller: loadctl.NewPA(paCfg),
		Items:      64,
		Interval:   time.Minute, // frozen: this test checks plumbing, not control
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/txn?class=update&k=3", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.Status != "committed" {
		t.Fatalf("txn: %d/%q", resp.StatusCode, tr.Status)
	}

	if got := srv.Limit(); got != 16 {
		t.Fatalf("Limit() = %v, want initial 16", got)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Controller string `json:"controller"`
		Limit      float64
		Totals     struct {
			Commits uint64 `json:"commits"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Controller != "parabola-approximation" || snap.Totals.Commits != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	if _, err := loadctl.NewServer(loadctl.ServerConfig{}); err == nil {
		t.Fatal("config without controller accepted")
	}
}

// TestServeGracefulDrain runs the full Serve lifecycle: a transaction is
// in flight when the context is cancelled (the SIGTERM path); the server
// must advertise "draining", finish the in-flight work, and return nil —
// the exit-0 contract the cluster tier's kill/restart scenarios rely on.
// The front door's connections, which net/http's Shutdown cannot see,
// drain too: an idle one is closed, a busy one answers first.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // Serve re-binds; the tiny race window is fine in tests

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- loadctl.Serve(ctx, loadctl.ServerConfig{
			Addr:         addr,
			Controller:   loadctl.NewStatic(8),
			Items:        64,
			DrainTimeout: 5 * time.Second,
		})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Two raw connections on the front door: one idle after a served
	// request, and one in flight, its body still arriving when the drain
	// begins.
	dial := func() (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		_ = nc.SetDeadline(time.Now().Add(15 * time.Second))
		return nc, bufio.NewReader(nc)
	}
	idle, idleR := dial()
	io.WriteString(idle, "POST /txn?k=2 HTTP/1.1\r\nHost: "+addr+"\r\n\r\n")
	if resp, err := http.ReadResponse(idleR, nil); err != nil || resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("keep-alive request on the front door: %v, %v", resp, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	busy, busyR := dial()
	io.WriteString(busy, "POST /txn HTTP/1.1\r\nHost: "+addr+"\r\nContent-Length: 7\r\n\r\n{\"k\":")

	// A large transaction in flight across the cancellation: k touches
	// every item several times over to stretch execution a little.
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/txn?shape=update&k=64", "application/json", nil)
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()

	if code := <-inflight; code != http.StatusOK && code != -1 {
		// -1 (connection error) can only happen if the request raced the
		// listener teardown before being accepted; an accepted request
		// must complete.
		t.Fatalf("in-flight txn during drain = %d", code)
	}
	// The drain ends the idle door connection and waits for the busy one,
	// which then answers — and says it closes.
	if n, err := idleR.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("idle front-door connection during the drain: read %d bytes, %v; want EOF", n, err)
	}
	io.WriteString(busy, "2}")
	if resp, err := http.ReadResponse(busyR, nil); err != nil || resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("front-door request in flight across the drain: %v, %v; want 200 with Connection: close", resp, err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestServeDrainsLinkTransactions is TestServeGracefulDrain for the
// proxy's hop (internal/link): its keep-alive connections are the front
// door's, which net/http never saw, so http.Server.Shutdown neither waits
// for nor closes them. Serve must itself let the hop's transaction in
// flight at the cancellation finish and answer, close the idle
// connections, and still return nil.
func TestServeDrainsLinkTransactions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const items = 1 << 20 // one transaction over every item runs for a good while
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- loadctl.Serve(ctx, loadctl.ServerConfig{
			Addr:         addr,
			Controller:   loadctl.NewStatic(8),
			Items:        items,
			DrainTimeout: 20 * time.Second,
		})
	}()
	base := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp, err := http.Get(base + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}

	tr := link.NewTransport()
	defer tr.CloseIdleConnections()
	post := func(query string) (int, error) {
		rep, err := tr.Do(context.Background(), addr, query, nil, 0, nil, nil)
		return rep.Status, err
	}
	long := make(chan int, 1)
	go func() {
		code, err := post("shape=update&k=" + strconv.Itoa(items))
		if err != nil {
			code = -1
		}
		long <- code
	}()
	state := func() (active, doorConns int) {
		var snap struct {
			Active    int `json:"active"`
			DoorConns int `json:"door_conns"`
		}
		resp, err := http.Get(base + "/metrics?format=json")
		if err != nil {
			return -1, -1
		}
		defer resp.Body.Close()
		_ = json.NewDecoder(resp.Body).Decode(&snap)
		return snap.Active, snap.DoorConns
	}
	for { // until one transaction is in flight, on one door connection
		active, conns := state()
		if active == 1 && conns == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the long hop transaction never showed as active (%d active, %d door connections)", active, conns)
		}
		time.Sleep(time.Millisecond)
	}
	// A second connection, idle by the time of the cancellation: the
	// drain has one of each kind to deal with.
	if code, err := post("shape=query&k=1"); err != nil || code != http.StatusOK {
		t.Fatalf("second hop connection: %d, %v", code, err)
	}
	cancel()

	if code := <-long; code != http.StatusOK {
		t.Fatalf("hop transaction in flight across the drain answered %d, want 200", code)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after a clean drain, want nil", err)
		}
	case <-time.After(25 * time.Second):
		t.Fatal("Serve did not return after the hop drain")
	}
}
