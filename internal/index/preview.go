package index

import (
	"fmt"
	"slices"

	"repro/internal/tree"
)

// PreView is the document's navigation structure re-indexed by 0-based
// preorder rank: column[r] describes the node with preorder index r+1, and
// every link is itself a rank (-1 for "none").  In this space a subtree is the
// contiguous interval [r, End[r]], so the relational kernel (arccons) answers
// Child+/Child*/Following by range operations on rank bitsets and the local
// axes by following one column.  The columns are immutable and shared.
type PreView struct {
	Parent, End, FirstChild, NextSibling, PrevSibling []int32
	// Identity reports that NodeID(r) is the node at rank r for every r (true
	// for parsed documents; false for builder-made trees whose children were
	// added out of document order), so NodeID-indexed label masks can be used
	// as rank masks without remapping.
	Identity bool
}

func buildPreView(t *tree.Tree) *PreView {
	n := t.Len()
	cols := make([]int32, 5*n) // one allocation, five columns
	pv := &PreView{
		Parent: cols[:n:n], End: cols[n : 2*n : 2*n], FirstChild: cols[2*n : 3*n : 3*n],
		NextSibling: cols[3*n : 4*n : 4*n], PrevSibling: cols[4*n:], Identity: true,
	}
	rank := func(v tree.NodeID) int32 {
		if v == tree.InvalidNode {
			return -1
		}
		return int32(t.Pre(v) - 1)
	}
	for r, v := range t.PreOrder() {
		pv.Identity = pv.Identity && int(v) == r
		pv.Parent[r] = rank(t.Parent(v))
		pv.End[r] = int32(r + t.SubtreeSize(v) - 1)
		pv.FirstChild[r] = rank(t.FirstChild(v))
		pv.NextSibling[r] = rank(t.NextSibling(v))
		pv.PrevSibling[r] = rank(t.PrevSibling(v))
	}
	return pv
}

// PreView returns the shared preorder-rank view of the tree, building it on
// the first relational execution (and again after a Release dropped it).  A
// patched index starts without one: ranks past a splice shift, and rebuilding
// is a single O(|D|) sweep.
func (ix *Index) PreView() *PreView {
	ix.mu.RLock()
	pv := ix.preView
	ix.mu.RUnlock()
	if pv != nil {
		return pv
	}
	built := buildPreView(ix.t)
	ix.mu.Lock()
	if ix.preView == nil {
		ix.preView = built
	}
	pv = ix.preView
	ix.mu.Unlock()
	return pv
}

// validatePreView checks a materialized view against the tree, column by
// column; an absent view is trivially consistent.
func (ix *Index) validatePreView() error {
	ix.mu.RLock()
	pv := ix.preView
	ix.mu.RUnlock()
	if pv == nil {
		return nil
	}
	want := buildPreView(ix.t)
	if pv.Identity != want.Identity {
		return fmt.Errorf("preview: identity %v, want %v", pv.Identity, want.Identity)
	}
	cols := func(v *PreView) [5][]int32 {
		return [5][]int32{v.Parent, v.End, v.FirstChild, v.NextSibling, v.PrevSibling}
	}
	got, exp := cols(pv), cols(want)
	for i, name := range [5]string{"parent", "end", "first_child", "next_sibling", "prev_sibling"} {
		if !slices.Equal(got[i], exp[i]) {
			return fmt.Errorf("preview: %s column disagrees with the tree", name)
		}
	}
	return nil
}
