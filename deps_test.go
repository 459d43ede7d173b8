package loadctl

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestServingBinariesLeaveSimulatorProtocolsOut checks that the serving
// binaries do not link the simulator's concurrency-control protocols: live
// transactions run only on kv's optimistic engine, and internal/cc and
// internal/db serve the simulator alone.
func TestServingBinariesLeaveSimulatorProtocolsOut(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./cmd/loadctld", "./cmd/loadctlproxy").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "github.com/tpctl/loadctl/internal/kv") {
		t.Fatalf("go list -deps does not name internal/kv; output:\n%s", out)
	}
	for _, pkg := range []string{"internal/cc", "internal/db"} {
		if slices.Contains(deps, "github.com/tpctl/loadctl/"+pkg) {
			t.Errorf("loadctld or loadctlproxy depends on %s", pkg)
		}
	}
}
