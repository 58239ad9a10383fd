// Package poolfix exercises the poolpair analyzer's diagnostic categories
// against the bitset pool stub.
package poolfix

import (
	"errors"

	"repro/internal/bitset"
)

var errBoom = errors.New("boom")

// DeferRelease is the canonical discipline: a deferred release covers every
// exit.  No diagnostics.
func DeferRelease(n int) int {
	b := bitset.Acquire(n)
	defer bitset.Release(b)
	b.Set(1)
	return b.Count()
}

// LeakOnErr forgets the buffer on the error branch — the conditional-release
// case the pool-hit-rate regressions come from.
func LeakOnErr(n int, fail bool) error {
	b := bitset.Acquire(n)
	b.Set(1)
	if fail {
		return errBoom // want `return without releasing "b"`
	}
	bitset.Release(b)
	return nil
}

// NeverReleased never pairs the acquire at all.
func NeverReleased(n int) {
	b := bitset.Acquire(n) // want `never released`
	b.Set(2)
}

// MaybeRelease releases on one branch only: the fall-through path leaks.
func MaybeRelease(n int, c bool) {
	b := bitset.Acquire(n) // want `not released on the fall-through path`
	if c {
		bitset.Release(b)
	}
}

// DoubleReleaseDefer pairs the acquire twice: once directly and once by the
// deferred release.
func DoubleReleaseDefer(n int) {
	b := bitset.Acquire(n)
	defer bitset.Release(b)
	b.Set(3)
	bitset.Release(b) // want `released here and again by the deferred release`
}

// DoubleReleasePath releases the same buffer twice on one path.
func DoubleReleasePath(n int) {
	b := bitset.Acquire(n)
	b.Set(4)
	bitset.Release(b)
	bitset.Release(b) // want `released a second time on this path`
}

// NewMask transfers ownership by returning the buffer; the caller releases.
// No diagnostics.
func NewMask(n int) bitset.Bits {
	b := bitset.Acquire(n)
	b.Set(0)
	return b
}

// fill sets bits in a vector its caller owns, the way an axis image does.
func fill(out bitset.Bits) { out.Set(0) }

// FillThenRelease lends the buffer to a filler and releases it afterwards.
// Passing it to a call counts as handing it over, so the pairing is not
// tracked past that point.  No diagnostics.
func FillThenRelease(n int) int {
	b := bitset.Acquire(n)
	fill(b)
	c := b.Count()
	bitset.Release(b)
	return c
}

// BranchesOK releases on every path.  No diagnostics.
func BranchesOK(n int, c bool) {
	b := bitset.Acquire(n)
	if c {
		bitset.Release(b)
		return
	}
	bitset.Release(b)
}

// SwitchRelease releases in every arm including default.  No diagnostics.
func SwitchRelease(n, mode int) {
	b := bitset.Acquire(n)
	switch mode {
	case 0:
		bitset.Release(b)
	default:
		bitset.Release(b)
	}
}

// PanicPath: a panicking branch is not a leak path.  No diagnostics.
func PanicPath(n int, c bool) {
	b := bitset.Acquire(n)
	if c {
		panic("boom")
	}
	bitset.Release(b)
}
