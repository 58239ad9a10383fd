package index

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/labeling"
	"repro/internal/tree"
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

	// XASR: built once, shared.
	if ix.XASR() != ix.XASR() {
		t.Errorf("XASR should be shared")
	}
	if s := ix.Snapshot(); s.XASRBuilds != 1 {
		t.Errorf("XASR builds = %d", s.XASRBuilds)
	}
}

// TestPairCacheMadeOnFirstUse: a new index makes no pair cache — no default
// route joins pairs — and reads, releases and patches one it has not made
// as an empty cache; the first pair relation built makes it, with the cap
// the index was configured with.
func TestPairCacheMadeOnFirstUse(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 50, Seed: 2, Alphabet: []string{"a", "b"}})
	ix := New(doc, WithPairCap(3))
	if ix.pairs != nil {
		t.Fatal("New made a pair cache")
	}
	ix.Release()
	ix.ReleaseLabels("a")
	if s := ix.Snapshot(); s.PairEntries != 0 || s.PairEvictions != 0 || ix.PairCap() != 3 {
		t.Fatalf("before the first pair: %+v, cap %d", s, ix.PairCap())
	}
	if _, ok := ix.StructuralPairs(tree.Child, "a", "b"); !ok || ix.pairs == nil || ix.pairs.Cap() != 3 {
		t.Fatalf("the first pair relation made no cache of cap 3 (ok=%v)", ok)
	}
	if s := ix.Snapshot(); s.PairEntries != 1 || s.PairBuilds != 1 {
		t.Fatalf("after the first pair: %+v", s)
	}
}

func TestStructuralPairsSoundness(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 300, Seed: 2, Alphabet: []string{"a", "b"}})
	ix := New(doc)
	if ix.MultiLabeled() {
		t.Fatal("RandomTree should be single-labeled")
	}
	pairs, ok := ix.StructuralPairs(tree.Descendant, "a", "b")
	if !ok {
		t.Fatal("single-labeled tree + Descendant should be served")
	}
	want := labeling.BuildXASR(doc).StructuralJoin(tree.Descendant, "a", "b")
	if pairs.Len() != want.Len() {
		t.Errorf("cached pairs %d rows, direct join %d", pairs.Len(), want.Len())
	}
	if _, ok := ix.StructuralPairs(tree.Following, "a", "b"); ok {
		t.Errorf("axes without a fast path should be refused")
	}
	p2, ok := ix.StructuralPairs(tree.Descendant, "a", "b")
	if !ok || p2 != pairs {
		t.Errorf("repeated lookups should return the cached relation")
	}
	if s := ix.Snapshot(); s.PairBuilds != 1 || s.PairHits != 1 {
		t.Errorf("pair counters = %+v", s)
	}
}

// TestStructuralPairsMultiLabel: the shortcut serves multi-labeled trees from
// label-complete sides, finding pairs the primary-label XASR join misses.
func TestStructuralPairsMultiLabel(t *testing.T) {
	// Root "a" with a secondary label; one child labeled only "extra"; one
	// grandchild "b".  Every structural fact below involves a secondary label.
	b := tree.NewBuilder()
	r := b.AddRoot("a", "extra")
	c := b.AddChild(r, "extra")
	b.AddChild(c, "b", "a")
	multi := b.MustBuild()
	ix := New(multi)
	if !ix.MultiLabeled() {
		t.Fatal("tree should be multi-labeled")
	}
	if !ix.Snapshot().MultiLabeled {
		t.Fatal("Snapshot should report the multi-label classification")
	}

	pairs, ok := ix.StructuralPairs(tree.Descendant, "a", "b")
	if !ok {
		t.Fatal("multi-labeled tree must be served by the label-complete shortcut")
	}
	if pairs.Len() != 1 {
		t.Fatalf("Descendant(a, b) = %d pairs, want 1", pairs.Len())
	}
	// The node labeled ("b", "a") is a descendant of both "a"-labeled and
	// "extra"-labeled nodes; a primary-only join would have found none of the
	// "extra" side and only a's primary row.
	pairs, ok = ix.StructuralPairs(tree.Descendant, "extra", "a")
	if !ok || pairs.Len() != 2 {
		t.Fatalf("Descendant(extra, a) served=%v len=%d, want 2 pairs (secondary labels indexed)", ok, pairs.Len())
	}
	pairs, ok = ix.StructuralPairs(tree.Child, "extra", "b")
	if !ok || pairs.Len() != 1 {
		t.Fatalf("Child(extra, b) served=%v len=%d, want 1", ok, pairs.Len())
	}
	pairs, ok = ix.StructuralPairs(tree.Ancestor, "b", "extra")
	if !ok || pairs.Len() != 2 {
		t.Fatalf("Ancestor(b, extra) served=%v len=%d, want 2", ok, pairs.Len())
	}
	if _, ok := ix.StructuralPairs(tree.Following, "a", "b"); ok {
		t.Errorf("axes without a fast path should still be refused")
	}
	if s := ix.Snapshot(); s.LabelRowBuilds == 0 {
		t.Errorf("label-complete sides should be built and counted: %+v", s)
	}

	// Cached sides are shared across pair builds of the same label.
	before := ix.Snapshot()
	ix.StructuralPairs(tree.Descendant, "a", "extra")
	after := ix.Snapshot()
	if after.LabelRowHits <= before.LabelRowHits {
		t.Errorf("reusing a label side should count a hit: %+v -> %+v", before, after)
	}
}

// TestLabelRowsAgainstBruteForce cross-checks every label-restricted pair
// relation on a multi-labeled site document against a HasLabel nested loop.
func TestLabelRowsAgainstBruteForce(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 12, Regions: 3, DescriptionDepth: 2, Seed: 9})
	ix := New(doc)
	if !ix.MultiLabeled() {
		t.Fatal("site documents should be multi-labeled (@id/@name attrs)")
	}
	cases := []struct {
		axis     tree.Axis
		from, to string
	}{
		{tree.Descendant, "item", "keyword"},
		{tree.Descendant, "@name=africa", "item"},
		{tree.Child, "region", "item"},
		{tree.Child, "item", "@id=item0"},
		{tree.Ancestor, "keyword", "item"},
		{tree.Descendant, "", "keyword"},
		{tree.Child, "item", ""},
	}
	for _, c := range cases {
		got, ok := ix.StructuralPairs(c.axis, c.from, c.to)
		if !ok {
			t.Fatalf("pairs(%v, %q, %q) refused", c.axis, c.from, c.to)
		}
		want := 0
		for _, u := range doc.Nodes() {
			if c.from != "" && !doc.HasLabel(u, c.from) {
				continue
			}
			for _, v := range doc.Nodes() {
				if c.to != "" && !doc.HasLabel(v, c.to) {
					continue
				}
				if doc.Holds(c.axis, u, v) {
					want++
				}
			}
		}
		if got.Len() != want {
			t.Errorf("pairs(%v, %q, %q) = %d rows, brute force %d", c.axis, c.from, c.to, got.Len(), want)
		}
	}
}

func TestPairCacheCap(t *testing.T) {
	// A many-label workload: every distinct (axis, from, to) combination is a
	// cache entry, so an alphabet of 8 labels offers up to 3*64 keys.
	alphabet := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 400, Seed: 4, Alphabet: alphabet})
	const pairCap = 5
	ix := New(doc, WithPairCap(pairCap))
	if ix.PairCap() != pairCap {
		t.Fatalf("PairCap = %d, want %d", ix.PairCap(), pairCap)
	}
	for _, axis := range []tree.Axis{tree.Child, tree.Descendant} {
		for _, from := range alphabet {
			for _, to := range alphabet {
				if _, ok := ix.StructuralPairs(axis, from, to); !ok {
					t.Fatalf("pairs(%v,%s,%s) refused on a single-labeled tree", axis, from, to)
				}
				if n := ix.Snapshot().PairEntries; n > pairCap {
					t.Fatalf("pair cache grew past its cap: %d > %d", n, pairCap)
				}
			}
		}
	}
	s := ix.Snapshot()
	if s.PairEntries != pairCap {
		t.Errorf("PairEntries = %d, want %d", s.PairEntries, pairCap)
	}
	if s.PairEvictions == 0 {
		t.Error("a many-label workload over a capped cache must evict")
	}
	if s.PairBuilds != 2*uint64(len(alphabet)*len(alphabet)) {
		t.Errorf("PairBuilds = %d, want %d (every combination distinct)", s.PairBuilds, 2*len(alphabet)*len(alphabet))
	}

	// An evicted relation is rebuilt on demand and matches the direct join.
	pairs, ok := ix.StructuralPairs(tree.Child, "a", "b")
	if !ok {
		t.Fatal("rebuild after eviction refused")
	}
	want := labeling.BuildXASR(doc).StructuralJoin(tree.Child, "a", "b")
	if pairs.Len() != want.Len() {
		t.Errorf("rebuilt relation has %d rows, direct join %d", pairs.Len(), want.Len())
	}

	// The hot key stays resident while colder keys churn around it.
	for i, to := range alphabet {
		ix.StructuralPairs(tree.Descendant, alphabet[i%4], to) // churn colder keys
		ix.StructuralPairs(tree.Child, "a", "b")               // keep the hot key warm
	}
	hitsBefore := ix.Snapshot().PairHits
	if _, ok := ix.StructuralPairs(tree.Child, "a", "b"); !ok {
		t.Fatal("hot key lookup refused")
	}
	if hits := ix.Snapshot().PairHits; hits != hitsBefore+1 {
		t.Errorf("hot key should still be cached: hits %d -> %d", hitsBefore, hits)
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
				_ = ix.XASR()
				_, _ = ix.StructuralPairs(tree.Descendant, "a", "b")
			}
		}(g)
	}
	wg.Wait()
	s := ix.Snapshot()
	if s.XASRBuilds != 1 {
		t.Errorf("XASR built %d times under concurrency", s.XASRBuilds)
	}
	// "nosuch" is not in the tree's dictionary: its empty answers touch no
	// cache, so only the four present labels build a list.
	if s.LabelListBuilds != uint64(len(labels)-1) {
		t.Errorf("label lists built %d times, want %d (one per present label)", s.LabelListBuilds, len(labels)-1)
	}
	if s.PairBuilds != 1 {
		t.Errorf("pair relation built %d times", s.PairBuilds)
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
