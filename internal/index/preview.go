package index

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// PreView is the document's navigation structure re-indexed by 0-based
// preorder rank: column[r] describes the node with preorder index r+1, and
// every link is itself a rank (-1 for "none").  In this space a subtree is the
// contiguous interval [r, End[r]], so an axis maps a rank set to its image by
// range fills (Child+/Child*/Following/Preceding) or by following one column
// (the local axes): Image is the one set-at-a-time primitive behind both the
// relational kernel (arccons) and the Core XPath evaluator (xpath).  The
// columns are immutable and shared.
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

// Hops describes a pointer-chasing axis in the view: its targets from rank r
// are first[r] (r itself when first is nil), then col[·] of each target in
// turn (nothing further when col is nil).  Self is (nil, nil).
func (pv *PreView) Hops(a tree.Axis) (first, col []int32) {
	switch a {
	case tree.Parent:
		return pv.Parent, nil
	case tree.NextSiblingAxis:
		return pv.NextSibling, nil
	case tree.PrevSiblingAxis:
		return pv.PrevSibling, nil
	case tree.Child:
		return pv.FirstChild, pv.NextSibling
	case tree.Ancestor:
		return pv.Parent, pv.Parent
	case tree.AncestorOrSelf:
		return nil, pv.Parent
	case tree.FollowingSibling:
		return pv.NextSibling, pv.NextSibling
	case tree.FollowingSiblingOrSelf:
		return nil, pv.NextSibling
	case tree.PrecedingSibling:
		return pv.PrevSibling, pv.PrevSibling
	case tree.PrecedingSiblingOrSelf:
		return nil, pv.PrevSibling
	}
	return nil, nil
}

// Image sets in out (initially empty) every rank y with a(x, y) for some x in
// s, in time linear in |s| plus the words or ranks it sets: the interval axes
// fill rank ranges, and a pointer chase stops at the first rank already set,
// since whoever set it went on to set everything beyond.  It returns how many
// ranks of s it stepped through — all of them, except that Preceding reads
// only the last — which is the caller's measure of work between two polls of
// a context.  s and out must not alias.
func (pv *PreView) Image(a tree.Axis, s, out bitset.Bits) (visited int) {
	n := len(pv.End)
	switch a {
	case tree.Descendant, tree.DescendantOrSelf:
		self := 1
		if a == tree.DescendantOrSelf {
			self = 0
		}
		covered := -1 // subtrees nest or follow each other: skip what is filled
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				x := wi<<6 + bits.TrailingZeros64(w)
				visited++
				if end := int(pv.End[x]); end > covered {
					out.SetRange(max(x+self, covered+1), end)
					covered = end
				}
			}
		}
	case tree.Following:
		lo := n // everything after the subtree that closes first
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				lo = min(lo, int(pv.End[wi<<6+bits.TrailingZeros64(w)])+1)
				visited++
			}
		}
		out.SetRange(lo, n-1)
	case tree.Preceding:
		// Everything before the last rank of s, bar its ancestors.
		if m := s.Last(); m > 0 {
			out.SetRange(0, m-1)
			for p := pv.Parent[m]; p >= 0; p = pv.Parent[p] {
				out.Clear(int(p))
			}
		}
	default:
		first, col := pv.Hops(a)
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				y := int32(wi<<6 + bits.TrailingZeros64(w))
				visited++
				if first != nil {
					y = first[y]
				}
				for y >= 0 {
					word, bit := &out[y>>6], uint64(1)<<uint(y&63)
					if *word&bit != 0 {
						break
					}
					*word |= bit
					if col == nil {
						break
					}
					y = col[y]
				}
			}
		}
	}
	return visited
}

// AndNodeMask intersects the rank set s with a set of t's nodes given as a
// NodeID-indexed mask (a label mask).  NodeIDs are ranks on trees built in
// document order; otherwise the mask's bits move through Pre first.
func (pv *PreView) AndNodeMask(t *tree.Tree, s, mask bitset.Bits) {
	if pv.Identity {
		s.And(mask)
		return
	}
	byRank := bitset.Acquire(len(pv.End))
	mask.ForEach(func(id int) { byRank.Set(t.Pre(tree.NodeID(id)) - 1) })
	s.And(byRank)
	bitset.Release(byRank)
}

// PreView returns the shared preorder-rank view of the tree, building it on
// the first execution that navigates (and again after a Release dropped it).
// A patched index shares its predecessor's view when the edit moved no rank
// and starts without one otherwise: rebuilding is a single O(|D|) sweep.
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
