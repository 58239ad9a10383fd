package index

import (
	"strings"
	"testing"

	"repro/internal/tree"
)

func (ix *Index) cachedPreView() *PreView {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.preView
}

// TestPreViewLifecycle: the rank view is built on first use and then shared,
// dropped by Release, absent from a freshly patched index (ranks past a
// shifting splice moved), rebuilt on demand equal to a fresh build, and
// checked by Validate.
func TestPreViewLifecycle(t *testing.T) {
	oldT := tree.MustParseSexpr("site(item(name keyword(gone)) item(name keyword))")
	newT := tree.MustParseSexpr("site(item(name) item(name keyword))")
	old := New(oldT)
	if old.cachedPreView() != nil {
		t.Fatal("view built before the first relational exec")
	}
	pv := old.PreView()
	if old.PreView() != pv {
		t.Fatal("second PreView call rebuilt the view")
	}
	// site=0 item=1 name=2 keyword=3 gone=4 item=5 name=6 keyword=7
	if pv.End[1] != 4 || pv.Parent[5] != 0 || pv.NextSibling[1] != 5 || pv.PrevSibling[5] != 1 ||
		pv.FirstChild[3] != 4 || pv.FirstChild[4] != -1 || pv.Parent[0] != -1 || !pv.Identity {
		t.Fatalf("unexpected view: %+v", pv)
	}
	warm(old, "item", "name", "keyword", "gone")

	patched := Patch(old, newT, diffSpec(t, oldT, newT))
	if patched.cachedPreView() != nil {
		t.Fatal("a shifting patch carried the old rank view over")
	}
	if got := patched.PreView(); got.End[1] != 2 || got.Parent[3] != 0 || len(got.End) != newT.Len() {
		t.Fatalf("patched view describes the wrong tree: %+v", got)
	}
	if err := patched.Validate(); err != nil {
		t.Fatalf("patched index invalid: %v", err)
	}

	old.Release()
	if old.cachedPreView() != nil {
		t.Fatal("Release kept the rank view")
	}
	if patched.cachedPreView() == nil {
		t.Fatal("releasing the old index dropped the patched index's view")
	}
	if err := old.Validate(); err != nil { // absent view: nothing to disagree
		t.Fatal(err)
	}

	// Validate covers the view: a corrupted column is reported.
	patched.cachedPreView().End[1]++
	if err := patched.Validate(); err == nil || !strings.Contains(err.Error(), "preview") {
		t.Fatalf("Validate missed a corrupted view: %v", err)
	}
	patched.Release()
	if err := patched.Validate(); err != nil {
		t.Fatalf("Release did not clear the corrupted view: %v", err)
	}
}
