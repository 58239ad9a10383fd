// Command expocheck reads a Prometheus text exposition on stdin and exits
// non-zero unless obsv.ValidateExposition accepts it: missing # HELP/# TYPE
// lines, bad names, duplicate series and torn histograms all fail.  An empty
// payload fails too.  ci/promlint.sh runs it on a live treeqd:
//
//	curl -sf http://localhost:8080/v1/metrics | go run ./internal/obsv/expocheck
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/obsv"
)

func main() {
	payload, err := io.ReadAll(os.Stdin)
	if err == nil && len(payload) == 0 {
		err = fmt.Errorf("empty exposition")
	}
	if err == nil {
		err = obsv.ValidateExposition(string(payload))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "expocheck:", err)
		os.Exit(1)
	}
}
