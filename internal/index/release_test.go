package index

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// TestReleaseDropsAndRebuilds: after Release every artifact family rebuilds
// on demand, produces identical content, and the counters stay monotonic.
func TestReleaseDropsAndRebuilds(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 250, Seed: 7, Alphabet: []string{"a", "b", "c"}})
	ix := New(doc, WithPairCap(2))

	// Warm every artifact family.
	xasr := ix.XASR()
	list := ix.NodesWithLabel("a")
	mask := ix.LabelMask("b")
	for _, to := range []string{"a", "b", "c"} {
		ix.StructuralPairs(tree.Descendant, "a", to) // 3 builds overflow cap 2
	}
	before := ix.Snapshot()
	if before.PairEvictions == 0 {
		t.Fatalf("expected pair evictions before release: %+v", before)
	}

	ix.Release()
	if s := ix.Snapshot(); s.Releases != 1 || s.PairEntries != 0 {
		t.Fatalf("after release: %+v", s)
	}

	// Artifacts handed out before the release stay valid (immutable)...
	if xasr.Tree() != doc || len(list) == 0 || mask.Len() < doc.Len() {
		t.Fatal("released artifacts were mutated")
	}
	// ...and re-requests rebuild identical content.
	if fmt.Sprint(ix.NodesWithLabel("a")) != fmt.Sprint(list) {
		t.Error("rebuilt label list differs")
	}
	if ix.XASR() == xasr {
		t.Error("XASR was not dropped by Release")
	}
	after := ix.Snapshot()
	if after.XASRBuilds != before.XASRBuilds+1 {
		t.Errorf("XASR builds %d -> %d, want one rebuild", before.XASRBuilds, after.XASRBuilds)
	}
	// Eviction counters never move backwards across a Release.
	if after.PairEvictions < before.PairEvictions {
		t.Errorf("pair evictions regressed: %d -> %d", before.PairEvictions, after.PairEvictions)
	}
}

// TestReleaseUnderConcurrentUse races Release against readers of every
// artifact family; -race plus the content checks catch torn caches.
func TestReleaseUnderConcurrentUse(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 300, Seed: 8, Alphabet: []string{"a", "b"}})
	ix := New(doc)
	wantList := fmt.Sprint(doc.NodesWithLabel("a"))

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := fmt.Sprint(ix.NodesWithLabel("a")); got != wantList {
					t.Errorf("label list torn under release: %s", got)
					return
				}
				if ix.XASR().Tree() != doc {
					t.Error("XASR bound to wrong tree under release")
					return
				}
				if _, ok := ix.StructuralPairs(tree.Child, "a", "b"); !ok {
					t.Error("structural pairs refused on single-labeled tree")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ix.Release()
		}
	}()
	wg.Wait()
	if s := ix.Snapshot(); s.Releases != 50 {
		t.Errorf("releases = %d, want 50", s.Releases)
	}
}

// TestReleaseMultiLabel races Release against the label-complete pair path on
// a multi-labeled document: released label rows/masks must be dropped and
// rebuilt to identical content, and the multi-label classification (computed
// at build time) must never flap across releases.
func TestReleaseMultiLabel(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 20, Regions: 3, DescriptionDepth: 2, Seed: 11})
	ix := New(doc, WithPairCap(4))
	if !ix.MultiLabeled() {
		t.Fatal("site documents should be multi-labeled")
	}
	wantPairs, ok := ix.StructuralPairs(tree.Descendant, "item", "keyword")
	if !ok {
		t.Fatal("label-complete shortcut refused")
	}
	wantLen := wantPairs.Len()
	wantRows := ix.LabelRows("item").Len()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			axes := []tree.Axis{tree.Descendant, tree.Child, tree.Ancestor}
			for i := 0; i < 200; i++ {
				if got, ok := ix.StructuralPairs(tree.Descendant, "item", "keyword"); !ok || got.Len() != wantLen {
					t.Errorf("pairs torn under release: ok=%v len=%d want %d", ok, got.Len(), wantLen)
					return
				}
				if got := ix.LabelRows("item").Len(); got != wantRows {
					t.Errorf("label rows torn under release: %d want %d", got, wantRows)
					return
				}
				// Churn the capped pair LRU with other keys while releasing.
				ix.StructuralPairs(axes[i%len(axes)], "region", "item")
				if !ix.MultiLabeled() {
					t.Error("multi-label classification flapped")
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ix.Release()
		}
	}()
	wg.Wait()

	// After the dust settles a release must actually drop the label rows: a
	// fresh request rebuilds (build counter moves) rather than serving a
	// stale pointer.
	ix.Release()
	before := ix.Snapshot()
	rebuilt := ix.LabelRows("item")
	after := ix.Snapshot()
	if rebuilt.Len() != wantRows {
		t.Errorf("rebuilt label rows = %d, want %d", rebuilt.Len(), wantRows)
	}
	if after.LabelRowBuilds != before.LabelRowBuilds+1 {
		t.Errorf("label rows not rebuilt after release: builds %d -> %d", before.LabelRowBuilds, after.LabelRowBuilds)
	}
}
