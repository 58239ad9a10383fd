//go:build !race

// Package race reports whether the race detector is compiled in.  Tests that
// pin exact allocation counts skip under it: its bookkeeping allocates, and
// sync.Pool drops a share of what is put into it on purpose, so a pooled
// buffer is now and then allocated afresh.
package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
