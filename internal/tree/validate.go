package tree

import "fmt"

// Validate checks the structural invariants of the tree's columns.  It
// returns nil when every invariant holds:
//
//   - parent[v] < v for every v > 0, and v lies in its parent's subtree
//     interval [parent[v], End(parent[v])] — NodeIDs are preorder ranks;
//   - the children of every node p tile [p+1, End(p)] exactly, which checks
//     the size column, and prevSibling links each child to the one before;
//   - depth[v] = depth[parent[v]] + 1, and the recorded height and label count;
//
// and, by comparison with a parent walk, the characterizations of Section 2
// the axis tests rely on:
//
//	Child+(x, y)   iff  x <pre y and y <post x  iff  x < y <= End(x)
//	Following(x,y) iff  x <pre y and x <post y  iff  End(x) < y
//
// Validate is O(n^2) on the characterizations and is intended for tests and
// for property-based checking of generators.
func (t *Tree) Validate() error {
	n := NodeID(t.Len())
	if n == 0 {
		return fmt.Errorf("tree: empty tree")
	}
	for v := range n {
		if t.size[v] < 1 || t.End(v) >= n {
			return fmt.Errorf("tree: subtree size %d of node %d out of range", t.size[v], v)
		}
	}
	if t.parent[0] != InvalidNode || t.End(0) != n-1 {
		return fmt.Errorf("tree: node 0 is not the root of all %d nodes", n)
	}
	for v := NodeID(1); v < n; v++ {
		if p := t.parent[v]; p < 0 || p >= v || v > t.End(p) {
			return fmt.Errorf("tree: node %d lies outside the subtree of its parent %d: NodeIDs are not in document order", v, p)
		}
	}

	// The children tile the parent's interval, each linked to the one before.
	if t.prevSibling[0] != InvalidNode {
		return fmt.Errorf("tree: the root has a previous sibling")
	}
	for p := range n {
		prev, c := InvalidNode, p+1
		for ; c <= t.End(p); c += NodeID(t.size[c]) {
			if t.parent[c] != p {
				return fmt.Errorf("tree: node %d starts a child subtree of %d but has parent %d", c, p, t.parent[c])
			}
			if t.prevSibling[c] != prev {
				return fmt.Errorf("tree: previous sibling of %d is %d, want %d", c, t.prevSibling[c], prev)
			}
			prev = c
		}
		if c != t.End(p)+1 {
			return fmt.Errorf("tree: the children of %d overrun its subtree size %d", p, t.size[p])
		}
	}

	// The label and text runs: offsets climb from 0 to the column's end, and
	// every code names a dictionary entry.
	for _, col := range [][]int32{t.labelOff, t.textOff} {
		if len(col) != int(n)+1 || col[0] != 0 {
			return fmt.Errorf("tree: %d offsets for %d nodes, first %d", len(col), n, col[0])
		}
		for v := range n {
			if col[v] > col[v+1] {
				return fmt.Errorf("tree: offsets of node %d run backwards", v)
			}
		}
	}
	if int(t.labelOff[n]) != len(t.labelCode) || int(t.textOff[n]) != len(t.text) {
		return fmt.Errorf("tree: offsets end at %d and %d, columns hold %d codes and %d text bytes",
			t.labelOff[n], t.textOff[n], len(t.labelCode), len(t.text))
	}
	alphabet := map[Code]bool{}
	for _, c := range t.labelCode {
		if c < 0 || int(c) >= t.dict.Len() {
			return fmt.Errorf("tree: label code %d outside the dictionary of %d names", c, t.dict.Len())
		}
		alphabet[c] = true
	}
	if len(alphabet) != t.alphabet {
		return fmt.Errorf("tree: %d distinct labels recorded, want %d", t.alphabet, len(alphabet))
	}

	// Depth and the height.
	height := 0
	for v := range n {
		if p := t.parent[v]; p != InvalidNode && t.depth[v] != t.depth[p]+1 {
			return fmt.Errorf("tree: depth of %d is %d, parent depth %d", v, t.depth[v], t.depth[p])
		} else if p == InvalidNode && t.depth[v] != 0 {
			return fmt.Errorf("tree: root depth %d, want 0", t.depth[v])
		}
		height = max(height, int(t.depth[v])+1)
	}
	if t.height != height {
		return fmt.Errorf("tree: height %d recorded, want %d", t.height, height)
	}

	// The interval characterizations of Child+ and Following (Section 2).
	for x := range n {
		for y := range n {
			desc := t.isDescendantByWalk(x, y)
			if desc != t.Holds(Descendant, x, y) {
				return fmt.Errorf("tree: Child+(%d,%d): interval test = %v, parent walk = %v",
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
// used only to cross-validate the interval characterization.
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
		la, lb := a.LabelCodes(v), b.LabelCodes(v)
		if len(la) != len(lb) {
			return false
		}
		for j := range la {
			if a.dict.Name(la[j]) != b.dict.Name(lb[j]) {
				return false
			}
		}
	}
	return true
}
