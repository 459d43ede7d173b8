package link_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tpctl/loadctl/internal/link"
)

// BenchmarkLinkHop prices the proxy⇄backend hop on real loopback sockets,
// one closed-loop caller, a /txn-sized request and answer, both ends in
// this process:
//
//	link  Transport → a server.Server's front door
//	http  http.Transport → net/http server (what the hop was before)
//
// The link row's backend runs the real /txn path over an engine that
// commits at once, so the figure is the wire plus the door and the
// transaction path's bookkeeping. The request carries a cancellable
// context, as every request the proxy relays for net/http does, so the
// link row includes what honouring a cancel costs: the allocations of
// context.AfterFunc (see conn.send), which are all Transport.Do
// allocates. CI gates that count exactly.
func BenchmarkLinkHop(b *testing.B) {
	run := func(b *testing.B, roundTrip func()) {
		roundTrip() // dial outside the measurement
		b.ReportAllocs()
		for b.Loop() {
			roundTrip()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.Run("link", func(b *testing.B) {
		backend := newBackend(b, nil)
		tr := link.NewTransport()
		defer tr.CloseIdleConnections()
		var buf []byte
		run(b, func() {
			rep, err := tr.Do(ctx, backend.addr, "shape=update&k=4", nil, 0x1235, nil, buf[:0])
			if err != nil {
				b.Fatal(err)
			}
			buf = rep.Body
		})
	})
	b.Run("http", func(b *testing.B) {
		body := []byte(`{"status":"committed","class":"update","admission_class":"default","attempts":1,"latency_ms":0.0123}` + "\n")
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("X-Loadctl-Load", "status=ok;limit=64;active=1;queued=0;util=0.0156;default=default")
			_, _ = w.Write(body)
		}))
		defer ts.Close()
		tr := &http.Transport{MaxIdleConnsPerHost: 256}
		defer tr.CloseIdleConnections()
		req := txnRequest(ctx, ts.URL, "shape=update&k=4", nil, 0x1235)
		run(b, func() {
			resp, err := tr.RoundTrip(req)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
	})
}
