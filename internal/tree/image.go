package tree

import (
	"math/bits"

	"repro/internal/bitset"
)

// Hops describes an upward or leftward axis as the tree's own link columns:
// its targets from node v are first[v] (v itself when first is nil), then
// col[·] of each target in turn (nothing further when col is nil).  Self is
// (nil, nil).  The downward and rightward axes have no column: their targets
// are subtrees that tile an interval (Tiles), and Hops panics on them.  The
// columns are shared and must not be modified.
func (t *Tree) Hops(a Axis) (first, col []NodeID) {
	switch a {
	case Self:
		return nil, nil
	case Parent:
		return t.parent, nil
	case PrevSiblingAxis:
		return t.prevSibling, nil
	case Ancestor:
		return t.parent, t.parent
	case AncestorOrSelf:
		return nil, t.parent
	case PrecedingSibling:
		return t.prevSibling, t.prevSibling
	case PrecedingSiblingOrSelf:
		return nil, t.prevSibling
	}
	panic("tree: Hops of an axis with no link column")
}

// Tiles describes Child, NextSibling, FollowingSibling and
// FollowingSiblingOrSelf, the axes Hops has no column for, as an interval:
// the targets from node x are the subtrees that tile [lo, hi], left to
// right, each next one starting where the last ends (c += SubtreeSize(c)) —
// every one of them, except that NextSibling has the first only.  The
// interval is empty (lo > hi) when there is none.  The result is meaningless
// for any other axis.
func (t *Tree) Tiles(a Axis, x NodeID) (lo, hi NodeID) {
	hi = t.End(x)
	if a == Child {
		return x + 1, hi
	}
	lo = hi + 1
	if a == FollowingSiblingOrSelf {
		lo = x
	}
	if p := t.parent[x]; p != InvalidNode { // the root's NextSibling* is itself
		hi = t.End(p)
	}
	return lo, hi
}

// Image sets in out (initially empty) every node y with a(x, y) for some x in
// s, in time linear in |s| plus the words or nodes it sets: the interval axes
// fill NodeID ranges (a subtree is [v, End(v)]), and a pointer chase stops at
// the first node already set, since whoever set it went on to set everything
// beyond.  Child and the right-sibling axes step from subtree to subtree
// across an interval (Tiles); the upward and leftward axes chase a column
// (Hops).  It is the one set-at-a-time axis primitive behind the Core XPath
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
	case Child:
		// Children of distinct nodes are distinct: nothing is set twice.
		size := t.size
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				x := wi<<6 + bits.TrailingZeros64(w)
				visited++
				for c, end := x+1, x+int(size[x])-1; c <= end; c += int(size[c]) {
					out[c>>6] |= 1 << uint(c&63)
				}
			}
		}
	case NextSiblingAxis, FollowingSibling, FollowingSiblingOrSelf:
		// A walk stops at the first node already set: a left sibling's walk
		// set it and went on to set everything after it.
		size := t.size
		for wi, w := range s {
			for ; w != 0; w &= w - 1 {
				visited++
				lo, hi := t.Tiles(a, NodeID(wi<<6+bits.TrailingZeros64(w)))
				for c := int(lo); c <= int(hi); c += int(size[c]) {
					word, bit := &out[c>>6], uint64(1)<<uint(c&63)
					if *word&bit != 0 {
						break
					}
					*word |= bit
					if a == NextSiblingAxis {
						break
					}
				}
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
