package service

import (
	"testing"

	"repro/internal/treediff"
)

// FuzzDiffPatchEquivalence: for ANY pair of parsable documents, updating a
// patching service from old to new answers every route byte-identically to
// the rebuild oracle and leaves a structurally valid index.  The fuzzer's job
// is to find edit shapes the hand-written cases and the random-edit generator
// missed — diffs that should fall back but do not, splices whose shift rules
// miss a column, label caches carried over when they should have been
// dropped.  Inputs are in the treediff canonical form, so the engine can
// mutate labels, text, structure, and multi-label sets independently.
func FuzzDiffPatchEquivalence(f *testing.F) {
	f.Add(`("a"("b")("c"))`, `("a"("b")("d"))`)      // leaf relabel
	f.Add(`("a"("b")("c"))`, `("a"("b")("c")("c"))`) // sibling insert
	f.Add(`("a"("b"("c")("d"))("e"))`, `("a"("e"))`) // subtree delete
	f.Add(`("a"("b"))`, `("z"("b"))`)                // root relabel
	f.Add(`("a"("b"("c")))`, `("a"("x"("y")("z")))`) // subtree replace
	f.Add(`("a"("b")("c"))`, `("q"("r"("s")))`)      // full rewrite -> rebuild
	f.Add(`("a"("b"="t1"))`, `("a"("b"="t2"))`)      // text-only edit
	f.Add(`("a"("b""x")("c"))`, `("a"("b")("c"))`)   // multi-label drop
	f.Add(`("a"("b")("b")("b"))`, `("a"("b")("b"))`) // repeated-label delete
	// Text-only edits under labels every route of the battery mentions: one on
	// a multi-labelled node, one on two nodes at once with a label between.
	f.Add(`("a"("b""c"="t1"("a"))("c"))`, `("a"("b""c"="t2"("a"))("c"))`)
	f.Add(`("a"="x"("b"("c"))("c"="y"))`, `("a"="u"("b"("c"))("c"="v"))`)
	f.Fuzz(func(t *testing.T, oldS, newS string) {
		oldT := sexprOrSkip(t, oldS, treediff.ParseCanonical)
		newT := sexprOrSkip(t, newS, treediff.ParseCanonical)
		assertPatchEquivalence(t, oldT, newT)
	})
}
