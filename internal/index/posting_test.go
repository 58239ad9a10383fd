package index

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/tree"
)

func TestPostingListSortedAndComplete(t *testing.T) {
	// b appears as a primary label and as a secondary label (multi-label
	// node): the posting list must cover both.  It is the one per-label list,
	// so NodesWithLabel hands out the very same slice.
	tr := tree.MustParseSexpr("a(b a+b(c) b(b))")
	ix := New(tr)
	pl := ix.PostingList("b")
	if want := []tree.NodeID{1, 2, 4, 5}; !slices.Equal(pl, want) {
		t.Fatalf("posting list %v, want %v", pl, want)
	}
	if nodes := ix.NodesWithLabel("b"); &nodes[0] != &pl[0] {
		t.Fatal("NodesWithLabel built a second list")
	}
	if got := ix.PostingList("zzz"); len(got) != 0 {
		t.Fatalf("absent label posting list = %v, want empty", got)
	}

	// The absent label has no code: its empty list touches no cache.
	s := ix.Snapshot()
	if s.LabelListBuilds != 1 || s.LabelListHits != 1 {
		t.Fatalf("LabelListBuilds/Hits = %d/%d, want 1/1", s.LabelListBuilds, s.LabelListHits)
	}
	ix.PostingList("b")
	if s = ix.Snapshot(); s.LabelListHits != 2 {
		t.Fatalf("LabelListHits = %d, want 2", s.LabelListHits)
	}
}

func TestTEDViewCachedAndReleased(t *testing.T) {
	tr := tree.MustParseSexpr("a(b(c) d)")
	ix := New(tr)
	d1 := ix.TED()
	if d1.Len() != tr.Len() {
		t.Fatalf("TED view has %d nodes, tree has %d", d1.Len(), tr.Len())
	}
	if ix.TED() != d1 {
		t.Fatal("second TED call did not return the cached view")
	}
	ix.PostingList("b")
	ix.Release()
	if got := ix.TED(); got == d1 {
		t.Fatal("TED view survived Release")
	}
	s := ix.Snapshot()
	if s.TEDBuilds != 2 {
		t.Fatalf("TEDBuilds = %d, want 2 (one per side of the Release)", s.TEDBuilds)
	}
	// The list map was re-pointed by Release: next call rebuilds.
	ix.PostingList("b")
	if s = ix.Snapshot(); s.LabelListBuilds != 2 {
		t.Fatalf("LabelListBuilds = %d, want 2 after Release", s.LabelListBuilds)
	}
}

func TestPostingListConcurrent(t *testing.T) {
	tr := tree.MustParseSexpr("a(b a+b(c) b(b) c(a b))")
	ix := New(tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ix.PostingList("b")
				ix.TED()
				if j%10 == 0 {
					ix.Release()
				}
			}
		}()
	}
	wg.Wait()
}
