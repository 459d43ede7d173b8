package cluster

import (
	"net/http"
	"testing"
	"time"
)

// TestMethodNotAllowedNamesAllow: a 405 must carry an Allow header naming
// the methods the endpoint takes (RFC 9110 §15.5.6) — on every endpoint of
// loadctld and of loadctlproxy that answers one.
func TestMethodNotAllowedNamesAllow(t *testing.T) {
	b := startBackend(t, 0, 8, time.Second)
	backend := "http://" + b.addr
	_, ts := passiveProxy(t, Config{Backends: []string{backend}})
	for _, c := range []struct {
		tier, base, method, path, allow string
	}{
		{"server", backend, http.MethodGet, "/txn", "POST"},
		{"server", backend, http.MethodDelete, "/controller", "GET, POST"},
		{"server", backend, http.MethodPost, "/metrics", "GET"},
		{"server", backend, http.MethodPost, "/debug/requests", "GET"},
		{"server", backend, http.MethodPost, "/debug/incidents", "GET"},
		{"proxy", ts.URL, http.MethodGet, "/txn", "POST"},
		{"proxy", ts.URL, http.MethodPost, "/controller", "GET"},
		{"proxy", ts.URL, http.MethodPost, "/metrics", "GET"},
		{"proxy", ts.URL, http.MethodPost, "/debug/requests", "GET"},
		{"proxy", ts.URL, http.MethodPost, "/debug/incidents", "GET"},
	} {
		t.Run(c.tier+" "+c.method+" "+c.path, func(t *testing.T) {
			req, err := http.NewRequest(c.method, c.base+c.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow {
				t.Fatalf("%d with Allow %q, want 405 with Allow %q", resp.StatusCode, resp.Header.Get("Allow"), c.allow)
			}
		})
	}
}
