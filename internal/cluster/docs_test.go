package cluster

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// promFamilies returns the metric families a Prometheus text export
// declares with # TYPE.
func promFamilies(text string) map[string]bool {
	fams := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			fams[f[2]] = true
		}
	}
	return fams
}

// docFamily matches a metric family named in prose: loadctl_x,
// loadctlproxy_x, loadctl{,proxy}_x for both, and a trailing * for a
// prefix.
var docFamily = regexp.MustCompile(`loadctl(\{,proxy\}|proxy)?_([a-z0-9_]+)(\*?)`)

// TestDocsNameEmittedFamilies fails when README.md or DESIGN.md names a
// loadctl_* family the server's golden Prometheus export does not emit,
// or a loadctlproxy_* family the proxy's does not — so a renamed or
// deleted family cannot live on in the docs.
func TestDocsNameEmittedFamilies(t *testing.T) {
	b := startLinkBackend(t, nil)
	p, ts := passiveProxy(t, Config{Backends: []string{b.ts.URL}})
	if resp := postTxn(t, ts, "?k=2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed transaction: %d", resp.StatusCode)
	}
	resp, err := http.Get(b.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[string]map[string]bool{
		"loadctl_":      promFamilies(string(text)),
		"loadctlproxy_": promFamilies(renderProm(p.SnapshotNow()).String()),
	}
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docFamily.FindAllStringSubmatch(string(raw), -1) {
			prefixes := []string{"loadctl" + m[1] + "_"}
			if m[1] == "{,proxy}" {
				prefixes = []string{"loadctl_", "loadctlproxy_"}
			}
			for _, prefix := range prefixes {
				name, emitted := prefix+m[2], false
				for fam := range tiers[prefix] {
					emitted = emitted || fam == name || m[3] == "*" && strings.HasPrefix(fam, name)
				}
				if !emitted {
					t.Errorf("%s names %s%s, which the %s export does not emit", doc, name, m[3], strings.TrimSuffix(prefix, "_"))
				}
			}
		}
	}
}
