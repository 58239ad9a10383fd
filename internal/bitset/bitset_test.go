package bitset

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	b := New(130) // forces a 2-bit tail in the third word
	if b.Len() != 192 {
		t.Fatalf("Len = %d, want 192", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 127, 128, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := b.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 6 {
		t.Fatalf("Clear(64) failed: count=%d", b.Count())
	}
	if !b.Any() {
		t.Fatal("Any = false on non-empty set")
	}
	b.Reset()
	if b.Any() || b.Count() != 0 {
		t.Fatal("Reset left bits set")
	}
}

func TestTailInvariant(t *testing.T) {
	const n = 70
	b := New(n)
	b.SetAll(n)
	if got := b.Count(); got != n {
		t.Fatalf("SetAll count = %d, want %d", got, n)
	}
	b.Not(n)
	if b.Any() {
		t.Fatal("Not(SetAll) should be empty")
	}
	b.Not(n)
	if got := b.Count(); got != n {
		t.Fatalf("double Not count = %d, want %d", got, n)
	}
	// Exact multiple of 64: no tail word to mask.
	d := New(128)
	d.SetAll(128)
	if got := d.Count(); got != 128 {
		t.Fatalf("SetAll(128) count = %d", got)
	}
}

func TestCombinators(t *testing.T) {
	n := 100
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	and := a.Clone()
	and.And(b)
	or := a.Clone()
	or.Or(b)
	for i := 0; i < n; i++ {
		ea, eb := i%2 == 0, i%3 == 0
		if and.Get(i) != (ea && eb) {
			t.Fatalf("And bit %d", i)
		}
		if or.Get(i) != (ea || eb) {
			t.Fatalf("Or bit %d", i)
		}
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal(clone) = false")
	}
	if a.Equal(b) {
		t.Fatal("Equal on different sets = true")
	}
}

// TestForEachMatchesBoolScan is the property test from the issue: bitset
// iteration must visit exactly the indices a []bool scan would, in order,
// on random label sets of varying sizes.
func TestForEachMatchesBoolScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		mask := make([]bool, n)
		for i := range mask {
			mask[i] = rng.Intn(3) == 0
		}
		b := FromBools(mask)

		var want []int
		for i, v := range mask {
			if v {
				want = append(want, i)
			}
		}
		var got []int
		b.ForEach(func(i int) { got = append(got, i) })
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d): got %d indices, want %d", trial, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: index %d: got %d, want %d", trial, i, got[i], want[i])
			}
		}
		if b.Count() != len(want) {
			t.Fatalf("trial %d: Count=%d want %d", trial, b.Count(), len(want))
		}
		// Round-trip through bools preserves the set.
		back := b.ToBools(n)
		for i := range mask {
			if back[i] != mask[i] {
				t.Fatalf("trial %d: ToBools mismatch at %d", trial, i)
			}
		}
	}
}

// ForEach documents that clearing bits of the receiver inside the callback is
// safe; verify the current word's snapshot is unaffected.
func TestForEachClearDuringIteration(t *testing.T) {
	b := New(128)
	for _, i := range []int{3, 5, 64, 70} {
		b.Set(i)
	}
	var seen []int
	b.ForEach(func(i int) {
		seen = append(seen, i)
		b.Clear(i)
		if i == 3 {
			b.Clear(5) // clearing a later bit in the same word: still visited
		}
	})
	if len(seen) != 4 {
		t.Fatalf("seen %v, want all four bits", seen)
	}
	if b.Any() {
		t.Fatal("bits left after clearing all")
	}
}

func TestAcquireRelease(t *testing.T) {
	a := Acquire(100)
	a.Set(42)
	Release(a)
	b := Acquire(100)
	if b.Any() {
		t.Fatal("Acquire returned a dirty vector")
	}
	if len(b) != WordsFor(100) {
		t.Fatalf("Acquire(100) len = %d words", len(b))
	}
	Release(b)
	hits, misses := PoolStats()
	if hits+misses == 0 {
		t.Fatal("pool stats not counting")
	}
	Release(nil) // no-op
}

// SetRange, NextInRange and Last against a bool-slice model, over intervals
// that start, end and sit inside word boundaries.
func TestRangeOpsAgainstModel(t *testing.T) {
	const n = 200
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 190, 199}
	for _, lo := range edges {
		for _, hi := range edges {
			b := New(n)
			b.SetRange(lo, hi)
			for i := 0; i < n; i++ {
				if want := lo <= i && i <= hi; b.Get(i) != want {
					t.Fatalf("SetRange(%d,%d): bit %d = %v, want %v", lo, hi, i, b.Get(i), want)
				}
			}
			wantLast := -1
			if lo <= hi {
				wantLast = hi
			}
			if got := b.Last(); got != wantLast {
				t.Fatalf("SetRange(%d,%d).Last() = %d, want %d", lo, hi, got, wantLast)
			}
		}
	}
	b := New(n)
	for _, i := range []int{5, 63, 64, 130} {
		b.Set(i)
	}
	for _, lo := range edges {
		for _, hi := range edges {
			want := -1
			for i := lo; i <= hi; i++ {
				if b.Get(i) {
					want = i
					break
				}
			}
			if got := b.NextInRange(lo, hi); got != want {
				t.Fatalf("NextInRange(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
}
