package link

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkLinkHop prices the proxy⇄backend hop on real loopback sockets,
// one closed-loop caller, a /txn-sized request and answer, both ends in
// this process:
//
//	link  Transport → Accept/ServerConn.Serve
//	http  http.Transport → net/http server (what the hop was before)
//
// The handler does no work, so the figure is the wire alone. The request
// carries a cancellable context, as every request cluster.forward relays
// does, so the link row includes what honouring a cancel costs: the
// allocations of context.AfterFunc (see conn.roundTrip), which are all the
// link round trip allocates. CI gates that count exactly.
func BenchmarkLinkHop(b *testing.B) {
	e := &echo{}
	sig := "status=ok;limit=64;active=1;queued=0;util=0.0156;default=default"
	e.signal.Store(&sig)

	run := func(b *testing.B, rt http.RoundTripper, url string) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := txnRequest(ctx, url, "shape=update&k=4", nil, 0x1235)
		roundTrip := func() {
			resp, err := rt.RoundTrip(req)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		roundTrip() // dial outside the measurement
		b.ReportAllocs()
		for b.Loop() {
			roundTrip()
		}
	}
	b.Run("link", func(b *testing.B) {
		backend := newLinkBackend(b, allocFree{e})
		tr := NewTransport()
		defer tr.CloseIdleConnections()
		run(b, tr, backend.ts.URL)
	})
	b.Run("http", func(b *testing.B) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := w.Header()
			h.Set("Content-Type", "application/json")
			h.Set("X-Loadctl-Load", sig)
			_, _ = w.Write(cannedBody)
		}))
		defer ts.Close()
		tr := &http.Transport{MaxIdleConnsPerHost: maxIdle}
		defer tr.CloseIdleConnections()
		run(b, tr, ts.URL)
	})
}
