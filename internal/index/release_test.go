package index

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestReleaseDropsAndRebuilds: after Release every artifact family rebuilds
// on demand, produces identical content, and the counters stay monotonic.
func TestReleaseDropsAndRebuilds(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 250, Seed: 7, Alphabet: []string{"a", "b", "c"}})
	ix := New(doc)

	// Warm every artifact family.
	list := ix.NodesWithLabel("a")
	mask := ix.LabelMask("b")
	view := ix.TED()
	before := ix.Snapshot()

	ix.Release()
	if s := ix.Snapshot(); s.Releases != 1 {
		t.Fatalf("after release: %+v", s)
	}

	// Artifacts handed out before the release stay valid (immutable)...
	if len(list) == 0 || mask.Len() < doc.Len() || len(view.BySize()) != doc.Len() {
		t.Fatal("released artifacts were mutated")
	}
	// ...and re-requests rebuild identical content.
	if fmt.Sprint(ix.NodesWithLabel("a")) != fmt.Sprint(list) {
		t.Error("rebuilt label list differs")
	}
	if fmt.Sprint(ix.LabelMask("b")) != fmt.Sprint(mask) {
		t.Error("rebuilt label mask differs")
	}
	if ix.TED() == view {
		t.Error("TED view was not dropped by Release")
	}
	after := ix.Snapshot()
	if after.LabelListBuilds != before.LabelListBuilds+1 || after.LabelMaskBuilds != before.LabelMaskBuilds+1 ||
		after.TEDBuilds != before.TEDBuilds+1 {
		t.Errorf("want one rebuild of each artifact: %+v -> %+v", before, after)
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
				if m := ix.LabelMask("b"); m.Count() != len(doc.NodesWithLabel("b")) {
					t.Errorf("label mask torn under release: %d bits", m.Count())
					return
				}
				if len(ix.TED().BySize()) != doc.Len() {
					t.Error("TED view torn under release")
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

// TestReleaseMultiLabel races Release against lookups of secondary
// (attribute) labels on a multi-labeled document: released lists and masks
// must be dropped and rebuilt to identical content, and the multi-label
// classification (computed at build time) must never flap across releases.
func TestReleaseMultiLabel(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 20, Regions: 3, DescriptionDepth: 2, Seed: 11})
	ix := New(doc)
	if !ix.MultiLabeled() {
		t.Fatal("site documents should be multi-labeled")
	}
	const attr = "@name=africa"
	wantList := fmt.Sprint(doc.NodesWithLabel(attr))
	if wantList == "[]" {
		t.Fatalf("no node carries %s", attr)
	}

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := fmt.Sprint(ix.NodesWithLabel(attr)); got != wantList {
					t.Errorf("secondary-label list torn under release: %s want %s", got, wantList)
					return
				}
				if got := ix.LabelMask(attr).Count(); got != len(doc.NodesWithLabel(attr)) {
					t.Errorf("secondary-label mask torn under release: %d bits", got)
					return
				}
				if !ix.MultiLabeled() {
					t.Error("multi-label classification flapped")
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

	// After the dust settles a release must actually drop the list: a fresh
	// request rebuilds (build counter moves) rather than serving a stale
	// pointer.
	ix.Release()
	before := ix.Snapshot()
	rebuilt := ix.NodesWithLabel(attr)
	after := ix.Snapshot()
	if fmt.Sprint(rebuilt) != wantList {
		t.Errorf("rebuilt list = %v, want %s", rebuilt, wantList)
	}
	if after.LabelListBuilds != before.LabelListBuilds+1 {
		t.Errorf("list not rebuilt after release: builds %d -> %d", before.LabelListBuilds, after.LabelListBuilds)
	}
}
