package tree

import "fmt"

// Validate checks the structural invariants of the tree and of its
// precomputed orders.  It returns nil when every invariant holds; the
// invariants checked are exactly the characterizations used throughout the
// paper (Section 2), in particular
//
//	Child+(x, y)   iff  x <pre y and y <post x
//	Following(x,y) iff  x <pre y and x <post y
//
// and the bidirectional functional dependencies of tau+ (each node has at
// most one first child, is the first child of at most one node, has at most
// one next sibling and is the next sibling of at most one node) that
// Theorem 3.2 relies on.  Validate is O(n^2) on the order characterizations
// and is intended for tests and for property-based checking of generators.
func (t *Tree) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("tree: empty tree")
	}
	if !t.IsRoot(t.Root()) {
		return fmt.Errorf("tree: node 0 is not the root")
	}

	// Exactly one root.
	roots := 0
	for u := range NodeID(n) {
		if t.parent[u] == InvalidNode {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("tree: %d roots, want 1", roots)
	}

	// Parent/child/sibling pointer consistency.
	for u := range NodeID(n) {
		for c := t.firstChild[u]; c != InvalidNode; c = t.nextSibling[c] {
			if t.parent[c] != u {
				return fmt.Errorf("tree: node %d is in child list of %d but has parent %d", c, u, t.parent[c])
			}
		}
		if fc := t.firstChild[u]; fc != InvalidNode {
			if t.prevSibling[fc] != InvalidNode {
				return fmt.Errorf("tree: first child %d of %d has a previous sibling", fc, u)
			}
		}
		if lc := t.lastChild[u]; lc != InvalidNode {
			if t.nextSibling[lc] != InvalidNode {
				return fmt.Errorf("tree: last child %d of %d has a next sibling", lc, u)
			}
		}
		if ns := t.nextSibling[u]; ns != InvalidNode {
			if t.prevSibling[ns] != u {
				return fmt.Errorf("tree: nextSibling/prevSibling mismatch at %d", u)
			}
			if t.parent[ns] != t.parent[u] {
				return fmt.Errorf("tree: siblings %d and %d have different parents", u, ns)
			}
		}
	}

	// Orders are permutations of 1..n.
	for _, o := range AllOrders() {
		seen := make([]bool, n+1)
		for u := range NodeID(n) {
			i := t.Index(o, u)
			if i < 1 || i > n {
				return fmt.Errorf("tree: %v index %d of node %d out of range", o, i, u)
			}
			if seen[i] {
				return fmt.Errorf("tree: %v index %d assigned twice", o, i)
			}
			seen[i] = true
		}
	}

	// Reverse index tables are consistent.
	for u := range NodeID(n) {
		if t.NodeAtPost(t.Post(u)) != u || t.NodeAtBFLR(t.BFLR(u)) != u {
			return fmt.Errorf("tree: reverse order index inconsistent at node %d", u)
		}
	}

	// Depth and subtree size.
	for u := range NodeID(n) {
		if p := t.parent[u]; p != InvalidNode {
			if t.depth[u] != t.depth[p]+1 {
				return fmt.Errorf("tree: depth of %d is %d, parent depth %d", u, t.depth[u], t.depth[p])
			}
		} else if t.depth[u] != 0 {
			return fmt.Errorf("tree: root depth %d, want 0", t.depth[u])
		}
		sz := int32(1)
		for c := t.firstChild[u]; c != InvalidNode; c = t.nextSibling[c] {
			sz += t.size[c]
		}
		if t.size[u] != sz {
			return fmt.Errorf("tree: subtree size of %d is %d, want %d", u, t.size[u], sz)
		}
	}

	// The whole-tree counts.
	height, texts := 0, 0
	for u := range NodeID(n) {
		height = max(height, int(t.depth[u])+1)
		if t.text[u] != "" {
			texts++
		}
	}
	if t.height != height || t.textNodes != texts {
		return fmt.Errorf("tree: height %d and %d text nodes recorded, want %d and %d", t.height, t.textNodes, height, texts)
	}

	// NodeIDs are preorder ranks: a first child directly follows its parent,
	// and a next sibling directly follows the subtree before it.
	for u := range NodeID(n) {
		if fc := t.firstChild[u]; fc != InvalidNode && fc != u+1 {
			return fmt.Errorf("tree: first child %d of %d is not the next node in document order", fc, u)
		}
		if ns := t.nextSibling[u]; ns != InvalidNode && ns != t.End(u)+1 {
			return fmt.Errorf("tree: next sibling %d of %d does not follow its subtree", ns, u)
		}
	}

	// The pre/post characterizations of Child+ and Following (Section 2).
	for x := range NodeID(n) {
		for y := range NodeID(n) {
			desc := t.isDescendantByWalk(x, y)
			if desc != t.Holds(Descendant, x, y) {
				return fmt.Errorf("tree: Child+(%d,%d): pre/post characterization = %v, pointer walk = %v",
					x, y, t.Holds(Descendant, x, y), desc)
			}
			foll := !desc && !t.isDescendantByWalk(y, x) && x != y && x < y
			if foll != t.Holds(Following, x, y) {
				return fmt.Errorf("tree: Following(%d,%d) mismatch", x, y)
			}
		}
	}
	return nil
}

// isDescendantByWalk checks Child+(x, y) by walking parent pointers from y;
// used only to cross-validate the pre/post characterization.
func (t *Tree) isDescendantByWalk(x, y NodeID) bool {
	for p := t.parent[y]; p != InvalidNode; p = t.parent[p] {
		if p == x {
			return true
		}
	}
	return false
}

// Equal reports whether two trees are isomorphic as ordered labeled trees
// (same shape, same label multisets per node, in the same order).
func Equal(a, b *Tree) bool {
	if a.Len() != b.Len() {
		return false
	}
	for v := range NodeID(a.Len()) {
		if a.parent[v] != b.parent[v] {
			return false
		}
		la, lb := a.Labels(v), b.Labels(v)
		if len(la) != len(lb) {
			return false
		}
		for j := range la {
			if la[j] != lb[j] {
				return false
			}
		}
	}
	return true
}
