package repro

import (
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestDaemonDeps pins the paper's baselines out of the daemon's import graph:
// treeqd runs only the Auto routes, so it must not link the evaluators that
// only a forced strategy, a paper experiment or an example reaches.  It runs
// the go command of the toolchain that built the test, so each toolchain
// checks its own graph.
//
// Three baseline packages stay linked, and the test allows them:
//   - labeling and relstore come in only through index's three deprecated,
//     uncached XASR / LabelRows / StructuralPairs shims (kept because the
//     benchmark's trace probes call them); the index caches no relational
//     state, and relstore keeps no pool;
//   - hornsat runs on no Auto route.  It is linked because mdatalog keeps
//     the ground Evaluate ablation (Theorem 3.2 as written) in the package
//     whose compiled solver treeqd runs, and arccons keeps the Prop. 6.2
//     reference MaxPreValuation beside the kernel in the same way.
func TestDaemonDeps(t *testing.T) {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "list", "-deps", "./cmd/treeqd").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("%s list -deps ./cmd/treeqd: %v\n%s", goBin, err, exit.Stderr)
		}
		t.Fatalf("%s list -deps ./cmd/treeqd: %v", goBin, err)
	}
	linked := map[string]bool{}
	var internal []string
	for _, p := range strings.Fields(string(out)) {
		linked[p] = true
		if strings.HasPrefix(p, "repro/internal/") {
			internal = append(internal, strings.TrimPrefix(p, "repro/internal/"))
		}
	}
	// A list without core is not treeqd's, and would pass vacuously.
	if !linked["repro/internal/core"] {
		t.Fatalf("go list -deps ./cmd/treeqd does not list repro/internal/core:\n%s", out)
	}
	t.Logf("treeqd links %d internal packages: %s", len(internal), strings.Join(internal, " "))
	for _, p := range []string{"yannakakis", "stream", "twigjoin", "treewidth", "fo"} {
		if linked["repro/internal/"+p] {
			t.Errorf("treeqd links repro/internal/%s, which it never runs", p)
		}
	}
}
