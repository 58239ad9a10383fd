package tree

import (
	"math/bits"

	"repro/internal/bitset"
)

// Hops describes a pointer-chasing axis as the tree's own link columns: its
// targets from node v are first[v] (v itself when first is nil), then col[·]
// of each target in turn (nothing further when col is nil).  Self is
// (nil, nil).  The columns are shared and must not be modified.
func (t *Tree) Hops(a Axis) (first, col []NodeID) {
	switch a {
	case Parent:
		return t.parent, nil
	case NextSiblingAxis:
		return t.nextSibling, nil
	case PrevSiblingAxis:
		return t.prevSibling, nil
	case Child:
		return t.firstChild, t.nextSibling
	case Ancestor:
		return t.parent, t.parent
	case AncestorOrSelf:
		return nil, t.parent
	case FollowingSibling:
		return t.nextSibling, t.nextSibling
	case FollowingSiblingOrSelf:
		return nil, t.nextSibling
	case PrecedingSibling:
		return t.prevSibling, t.prevSibling
	case PrecedingSiblingOrSelf:
		return nil, t.prevSibling
	}
	return nil, nil
}

// Image sets in out (initially empty) every node y with a(x, y) for some x in
// s, in time linear in |s| plus the words or nodes it sets: the interval axes
// fill NodeID ranges (a subtree is [v, End(v)]), and a pointer chase stops at
// the first node already set, since whoever set it went on to set everything
// beyond.  It is the one set-at-a-time axis primitive behind the Core XPath
// evaluator and the relational kernel.  It returns how many nodes of s it
// stepped through — all of them, except that Preceding reads only the last —
// which is the caller's measure of work between two polls of a context.  s
// and out must not alias.
func (t *Tree) Image(a Axis, s, out bitset.Bits) (visited int) {
	n := t.Len()
	switch a {
	case Descendant, DescendantOrSelf:
		self := 1
		if a == DescendantOrSelf {
			self = 0
		}
		covered := -1 // subtrees nest or follow each other: skip what is filled
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				x := wi<<6 + bits.TrailingZeros64(w)
				visited++
				if end := int(t.End(NodeID(x))); end > covered {
					out.SetRange(max(x+self, covered+1), end)
					covered = end
				}
			}
		}
	case Following:
		lo := n // everything after the subtree that closes first
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				lo = min(lo, int(t.End(NodeID(wi<<6+bits.TrailingZeros64(w))))+1)
				visited++
			}
		}
		out.SetRange(lo, n-1)
	case Preceding:
		// Everything before the last node of s, bar its ancestors.
		if m := s.Last(); m > 0 {
			out.SetRange(0, m-1)
			for p := t.parent[m]; p != InvalidNode; p = t.parent[p] {
				out.Clear(int(p))
			}
		}
	default:
		first, col := t.Hops(a)
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				y := NodeID(wi<<6 + bits.TrailingZeros64(w))
				visited++
				if first != nil {
					y = first[y]
				}
				for y != InvalidNode {
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
