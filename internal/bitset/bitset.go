// Package bitset provides the dense []uint64 bit vectors used as node-set
// and label-mask representation across the evaluator hot paths: one bit per
// tree node (NodeIDs are dense), with word-at-a-time boolean combinators and
// a trailing-zeros iterator, so set intersection/union/complement run 64
// nodes per instruction instead of one bool per iteration.
//
// All operations preserve the invariant that bits at positions >= the logical
// length n (the tail of the last word) are zero; Not and SetAll mask the last
// word explicitly.  Count, Any, ForEach and Equal rely on it.
package bitset

import "math/bits"

// Bits is a fixed-capacity bit vector.  The logical length (number of usable
// bits) is fixed at New; Len reports the word capacity in bits, which may
// round the requested length up to a multiple of 64.
type Bits []uint64

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) >> 6 }

// New returns a zeroed bit vector with capacity for n bits.
func New(n int) Bits { return make(Bits, WordsFor(n)) }

// Len returns the capacity of the vector in bits (a multiple of 64).
func (b Bits) Len() int { return len(b) << 6 }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << uint(i&63) }

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// And intersects b with o in place (b &= o).  The vectors must have the same
// word length.
func (b Bits) And(o Bits) {
	for i, w := range o {
		b[i] &= w
	}
}

// Or unions o into b in place (b |= o).
func (b Bits) Or(o Bits) {
	for i, w := range o {
		b[i] |= w
	}
}

// Not complements the first n bits of b in place, leaving the tail zero.
func (b Bits) Not(n int) {
	for i := range b {
		b[i] = ^b[i]
	}
	b.maskTail(n)
}

// SetAll sets the first n bits and clears the tail.
func (b Bits) SetAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	b.maskTail(n)
}

// maskTail zeroes the bits at positions >= n.
func (b Bits) maskTail(n int) {
	if tail := n & 63; tail != 0 && n>>6 < len(b) {
		b[n>>6] &= (1 << uint(tail)) - 1
	}
	for i := WordsFor(n); i < len(b); i++ {
		b[i] = 0
	}
}

// Reset clears every bit.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Any reports whether at least one bit is set.
func (b Bits) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an owned copy of b.
func (b Bits) Clone() Bits {
	out := make(Bits, len(b))
	copy(out, b)
	return out
}

// CopyFrom overwrites b with o (same word length required).
func (b Bits) CopyFrom(o Bits) { copy(b, o) }

// Equal reports whether b and o hold the same bits (same word length
// required for equality).
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit in ascending order, skipping zero words
// and using trailing-zeros iteration within a word.  Each word is snapshotted
// before its bits are visited, so f may Clear bits of b (including the one
// just visited) without affecting the current word's iteration.
func (b Bits) ForEach(f func(i int)) {
	for wi, w := range b {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// FromBools builds a bit vector from a boolean mask.
func FromBools(m []bool) Bits {
	out := New(len(m))
	for i, v := range m {
		if v {
			out.Set(i)
		}
	}
	return out
}

// ToBools expands the first n bits into a boolean mask.
func (b Bits) ToBools(n int) []bool {
	out := make([]bool, n)
	b.ForEach(func(i int) {
		if i < n {
			out[i] = true
		}
	})
	return out
}

// SetRange sets every bit in the closed interval [lo, hi]; an empty interval
// (lo > hi) is a no-op.  Whole words are filled at once, so marking a subtree
// (a contiguous preorder interval) costs O(size/64).
func (b Bits) SetRange(lo, hi int) {
	if lo > hi {
		return
	}
	first, last := lo>>6, hi>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-hi&63)
	if first == last {
		b[first] |= loMask & hiMask
		return
	}
	b[first] |= loMask
	for i := first + 1; i < last; i++ {
		b[i] = ^uint64(0)
	}
	b[last] |= hiMask
}

// NextInRange returns the smallest set bit in the closed interval [lo, hi],
// or -1 if there is none.  It scans word-at-a-time and never looks past hi,
// so probing a subtree interval costs O(size/64) however sparse b is.
func (b Bits) NextInRange(lo, hi int) int {
	if lo > hi {
		return -1
	}
	wi, last := lo>>6, hi>>6
	w := b[wi] &^ (1<<uint(lo&63) - 1)
	for w == 0 {
		wi++
		if wi > last {
			return -1
		}
		w = b[wi]
	}
	if r := wi<<6 + bits.TrailingZeros64(w); r <= hi {
		return r
	}
	return -1
}

// Last returns the largest set bit, or -1 for the empty vector.
func (b Bits) Last() int {
	for wi := len(b) - 1; wi >= 0; wi-- {
		if b[wi] != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(b[wi])
		}
	}
	return -1
}
