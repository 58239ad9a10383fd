package index

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/workload"
)

func TestLazyBuildAndCounters(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 200, Seed: 1, Alphabet: []string{"a", "b", "c"}})
	ix := New(doc)
	if s := ix.Snapshot(); s.Builds() != 0 {
		t.Fatalf("nothing should be built before first use: %+v", s)
	}

	// Label list: one build, then hits.
	l1 := ix.NodesWithLabel("a")
	l2 := ix.NodesWithLabel("a")
	if fmt.Sprint(l1) != fmt.Sprint(doc.NodesWithLabel("a")) {
		t.Errorf("cached label list differs from tree scan")
	}
	if &l1[0] != &l2[0] {
		t.Errorf("repeated lookups should return the shared slice")
	}
	s := ix.Snapshot()
	if s.LabelListBuilds != 1 || s.LabelListHits != 1 {
		t.Errorf("label list counters = %+v", s)
	}

	// Mask agrees with the tree.
	mask := ix.LabelMask("b")
	for _, n := range doc.Nodes() {
		if mask.Get(int(n)) != doc.HasLabel(n, "b") {
			t.Fatalf("mask wrong at node %d", n)
		}
	}

	// TED view: built once, shared.
	if ix.TED() != ix.TED() {
		t.Errorf("TED view should be shared")
	}
	if s := ix.Snapshot(); s.TEDBuilds != 1 || s.Builds() != 3 || s.Hits() != 1 {
		t.Errorf("after a list, a mask and a TED view: %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 500, Seed: 3, Alphabet: []string{"a", "b", "c", "d"}})
	ix := New(doc)
	labels := []string{"a", "b", "c", "d", "nosuch"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l := labels[(g+i)%len(labels)]
				_ = ix.NodesWithLabel(l)
				_ = ix.LabelMask(l)
				_ = ix.TED()
			}
		}(g)
	}
	wg.Wait()
	s := ix.Snapshot()
	if s.TEDBuilds != 1 {
		t.Errorf("TED view built %d times under concurrency", s.TEDBuilds)
	}
	// "nosuch" is not in the tree's dictionary: its empty answers touch no
	// cache, so only the four present labels build a list.
	if s.LabelListBuilds != uint64(len(labels)-1) {
		t.Errorf("label lists built %d times, want %d (one per present label)", s.LabelListBuilds, len(labels)-1)
	}
	if s.LabelMaskBuilds != uint64(len(labels)-1) {
		t.Errorf("label masks built %d times, want %d (one per present label)", s.LabelMaskBuilds, len(labels)-1)
	}
}

// TestLabelMaskAbsentLabelTouchesNoCache pins the negative lookup: a label
// absent from the tree's dictionary has no code, so its mask is empty without
// a scan of the tree and without a cache entry — repeated misses never
// re-scan either.  A code no node carries any more is memoized like any
// other.
func TestLabelMaskAbsentLabelTouchesNoCache(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 200, Seed: 7, Alphabet: []string{"a", "b"}})
	ix := New(doc)

	m1 := ix.LabelMask("no-such-label")
	if m1.Any() {
		t.Fatal("mask for an absent label must be empty")
	}
	m2 := ix.LabelMask("no-such-label")
	if m2.Any() {
		t.Fatal("memoized mask for an absent label must stay empty")
	}

	if len(m1) != bitset.WordsFor(doc.Len()) {
		t.Errorf("absent-label mask has %d words, want %d", len(m1), bitset.WordsFor(doc.Len()))
	}
	if s := ix.Snapshot(); s.LabelMaskBuilds != 0 || s.LabelMaskHits != 0 {
		t.Errorf("LabelMaskBuilds/Hits = %d/%d, want 0/0: an absent label touches no cache", s.LabelMaskBuilds, s.LabelMaskHits)
	}
}
