package index

import (
	"testing"

	"repro/internal/tree"
	"repro/internal/treediff"
)

// warm touches every artifact family so Patch has something to carry over.
func warm(ix *Index, labels ...string) {
	ix.TED()
	for _, l := range labels {
		ix.NodesWithLabel(l)
		ix.LabelMask(l)
	}
}

func diffSpec(t *testing.T, oldT, newT *tree.Tree) PatchSpec {
	t.Helper()
	sc, ok := treediff.Diff(oldT, newT)
	if !ok {
		t.Fatal("diff fell back to rebuild")
	}
	return PatchSpec{
		Start: sc.Start, OldLen: sc.OldLen, NewLen: sc.NewLen,
		Touched: sc.Touched, ShapePreserving: sc.ShapePreserving,
	}
}

func TestPatchMatchesFreshBuild(t *testing.T) {
	cases := []struct{ name, old, new string }{
		{"relabel", "site(item(name keyword) item(name keyword))",
			"site(item(name keyword) item(title keyword))"},
		{"insert", "site(item(name keyword) item(name))",
			"site(item(name keyword) item(name keyword keyword))"},
		{"delete", "site(item(name keyword(a b)) item(name))",
			"site(item(name) item(name))"},
		{"replace-grow", "site(item(name) item(name))",
			"site(item(payload(name keyword)) item(name))"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldT := tree.MustParseSexpr(tc.old)
			newT := tree.MustParseSexpr(tc.new)
			old := New(oldT)
			warm(old, "item", "name", "keyword")
			spec := diffSpec(t, oldT, newT)

			patched := Patch(old, newT, spec)
			if err := patched.Validate(); err != nil {
				t.Fatalf("patched index invalid: %v", err)
			}
			if err := old.Validate(); err != nil {
				t.Fatalf("old index corrupted by patch: %v", err)
			}
			// A patch builds nothing: carried artifacts are shared or
			// remapped, and the rest is rebuilt lazily on first use.
			if s := patched.Snapshot(); s.Builds() != 0 {
				t.Fatalf("patching built artifacts: %+v", s)
			}
			// "item" is untouched in every case: its artifacts must have been
			// carried over, not rebuilt.
			sn := patched.Snapshot()
			patched.NodesWithLabel("item")
			patched.PostingList("item")
			after := patched.Snapshot()
			if after.LabelListBuilds != sn.LabelListBuilds {
				t.Fatal("untouched label artifacts were rebuilt instead of carried over")
			}
			if after.LabelListHits == sn.LabelListHits {
				t.Fatal("carried-over node list did not register as a cache hit")
			}
		})
	}
}

func TestPatchMultiLabelReclassification(t *testing.T) {
	oldT := tree.MustParseSexpr("r(a b)")
	newT := tree.MustParseSexpr("r(a b+c)")
	old := New(oldT)
	if old.MultiLabeled() {
		t.Fatal("old tree misclassified")
	}
	patched := Patch(old, newT, diffSpec(t, oldT, newT))
	if !patched.MultiLabeled() {
		t.Fatal("patched index missed the new multi-labeled node")
	}
	// And back: removing the only multi-labeled node forces a full rescan.
	back := Patch(patched, oldT, diffSpec(t, newT, oldT))
	if back.MultiLabeled() {
		t.Fatal("patched index kept a stale multi-label classification")
	}
}

// TestReleaseOnPatchedEngine is the regression test for the Release fix:
// artifacts keyed by labels the diff removed must be dropped from the patched
// index (not served stale or leaked), and Release on either generation must
// not corrupt the other — the two indexes share immutable artifacts but no
// mutable cache state.
func TestReleaseOnPatchedEngine(t *testing.T) {
	oldT := tree.MustParseSexpr("site(item(name keyword(gone)) item(name))")
	newT := tree.MustParseSexpr("site(item(name) item(name))")
	old := New(oldT)
	warm(old, "item", "name", "keyword", "gone")
	patched := Patch(old, newT, diffSpec(t, oldT, newT))

	// Labels that existed only in the removed subtree are gone from the
	// patched index's caches immediately, not merely stale-but-hidden.
	if ns := patched.NodesWithLabel("gone"); len(ns) != 0 {
		t.Fatalf("removed label still has %d cached nodes", len(ns))
	}
	if pl := patched.PostingList("keyword"); len(pl) != 0 {
		t.Fatalf("removed label still has %d posting entries", len(pl))
	}
	if err := patched.Validate(); err != nil {
		t.Fatalf("patched index invalid: %v", err)
	}

	// Releasing the superseded generation (the normal swap flow) must leave
	// the patched index fully usable...
	old.Release()
	if err := patched.Validate(); err != nil {
		t.Fatalf("patched index broken by old.Release: %v", err)
	}
	// ...and vice versa: Release on the patched engine itself rebuilds on
	// demand, with the old index unharmed.
	patched.Release()
	if err := patched.Validate(); err != nil {
		t.Fatalf("patched index broken by its own Release: %v", err)
	}
	if err := old.Validate(); err != nil {
		t.Fatalf("old index broken by patched.Release: %v", err)
	}
}

func TestReleaseLabels(t *testing.T) {
	tr := tree.MustParseSexpr("site(item(name keyword) item(name))")
	ix := New(tr)
	warm(ix, "item", "name", "keyword")

	ix.ReleaseLabels("keyword")
	// keyword artifacts rebuild (miss), item artifacts hit.
	s0 := ix.Snapshot()
	ix.NodesWithLabel("keyword")
	ix.LabelMask("keyword")
	s1 := ix.Snapshot()
	if s1.LabelListBuilds == s0.LabelListBuilds || s1.LabelMaskBuilds == s0.LabelMaskBuilds {
		t.Fatal("released label artifacts were not dropped")
	}
	ix.NodesWithLabel("item")
	s2 := ix.Snapshot()
	if s2.LabelListHits == s1.LabelListHits {
		t.Fatal("unrelated label artifact was dropped by ReleaseLabels")
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("index invalid after ReleaseLabels: %v", err)
	}
}

// TestPatchMaskOnlyWarmLabel is the regression for a bug the differential
// harness found: LabelMask caches a mask without materializing the node list,
// so a label can be warm in labelMasks only — and the patch's mask remap used
// to rebuild from the (empty) node list, carrying an all-zero mask for an
// untouched label across any delta != 0 splice.
func TestPatchMaskOnlyWarmLabel(t *testing.T) {
	oldT := tree.MustParseSexpr("site(item(name) item(keyword))")
	newT := tree.MustParseSexpr("site(item(name) item(keyword keyword))")
	old := New(oldT)
	old.LabelMask("name") // mask warm, node list cold
	patched := Patch(old, newT, diffSpec(t, oldT, newT))
	m := patched.LabelMask("name")
	for _, n := range newT.Nodes() {
		if m.Get(int(n)) != newT.HasLabel(n, "name") {
			t.Fatalf("patched mask bit %d = %v, tree says %v", n, m.Get(int(n)), newT.HasLabel(n, "name"))
		}
	}
	if err := patched.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPatchSharesViewOnShapePreservingEdit: a patch that moved no node shares
// an untouched label's mask — the same vector — and a shifting patch remaps
// it.  Every shape-preserving edit, a relabel as much as a text-only edit,
// carries the TED view, which depends on the shape alone.  Validate is green
// either way.
func TestPatchSharesViewOnShapePreservingEdit(t *testing.T) {
	oldT := tree.MustParseSexpr("site(item(name keyword) item(name keyword))")
	old := New(oldT)
	ted, mask := old.TED(), old.LabelMask("item")
	same := func(a, b []uint64) bool { return &a[0] == &b[0] }

	relabeled := tree.MustParseSexpr("site(item(name keyword) item(title keyword))")
	spec := diffSpec(t, oldT, relabeled)
	if !spec.ShapePreserving {
		t.Fatalf("a relabel should preserve the shape: %+v", spec)
	}
	patched := Patch(old, relabeled, spec)
	if !same(patched.LabelMask("item"), mask) {
		t.Error("a shape-preserving patch did not share an untouched label's mask")
	}
	if patched.TED() != ted {
		t.Error("a relabel did not carry the TED view, which sees no label")
	}
	if s := patched.Snapshot(); s.Builds() != 0 {
		t.Errorf("a relabel built something: %+v", s)
	}
	if err := patched.Validate(); err != nil {
		t.Fatalf("relabel: patched index invalid: %v", err)
	}

	unseen := Patch(old, oldT, PatchSpec{ShapePreserving: true}) // an edit of text alone
	if !same(unseen.LabelMask("item"), mask) || unseen.TED() != ted {
		t.Error("a text-only patch did not share the mask and the TED view")
	}
	if s := unseen.Snapshot(); s.Builds() != 0 {
		t.Errorf("a text-only patch built something: %+v", s)
	}
	if err := unseen.Validate(); err != nil {
		t.Fatalf("text-only: patched index invalid: %v", err)
	}

	inserted := tree.MustParseSexpr("site(item(name keyword keyword) item(name keyword))")
	patched = Patch(old, inserted, diffSpec(t, oldT, inserted))
	if same(patched.LabelMask("item"), mask) {
		t.Error("a shifting patch shared a mask whose bits moved")
	}
	if err := patched.Validate(); err != nil {
		t.Fatalf("insert: patched index invalid: %v", err)
	}
}
