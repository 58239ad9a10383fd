// Package poolcheck holds tests to the balance of the engine's pools.  Each
// pool whose take and release sit in different functions counts what is out
// (taken minus released) and exports that count as a func() int64; whatever
// a test takes it must release, so every count is zero once a test binary's
// tests are done, and after every input of a fuzz target that drives a pool.
package poolcheck

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// Main runs m's tests and exits non-zero when they fail or when one of the
// counts is not zero after them.  A package's TestMain calls it with the
// counts of every pool its code reaches.
func Main(m *testing.M, counts ...func() int64) {
	code := m.Run()
	for _, out := range counts {
		if n := out(); n != 0 {
			fmt.Fprintf(os.Stderr, "poolcheck: %s() = %d after the tests, want 0\n", name(out), n)
			code = 1
		}
	}
	os.Exit(code)
}

// Check fails t when one of the counts is not zero.
func Check(t testing.TB, counts ...func() int64) {
	t.Helper()
	for _, out := range counts {
		if n := out(); n != 0 {
			t.Errorf("%s() = %d, want 0", name(out), n)
		}
	}
}

// name is the qualified name of the count's function, such as
// repro/internal/bitset.Outstanding.
func name(out func() int64) string {
	return runtime.FuncForPC(reflect.ValueOf(out).Pointer()).Name()
}
