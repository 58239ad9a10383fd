//go:build race

package race

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
