package tree

import "fmt"

// Axis identifies one of the binary tree navigation relations ("axes",
// Section 2 of the paper).  The forward axes are Child, Child+ (Descendant),
// Child* (Descendant-or-self), NextSibling, NextSibling+ (Following-Sibling),
// NextSibling* and Following; every axis has an inverse obtained with
// Inverse.
type Axis int

const (
	// Self relates each node to itself.
	Self Axis = iota
	// Child relates a node to each of its children.
	Child
	// Descendant is Child+, the transitive closure of Child.
	Descendant
	// DescendantOrSelf is Child*, the reflexive-transitive closure of Child.
	DescendantOrSelf
	// Parent is the inverse of Child.
	Parent
	// Ancestor is the inverse of Descendant.
	Ancestor
	// AncestorOrSelf is the inverse of DescendantOrSelf.
	AncestorOrSelf
	// NextSiblingAxis relates a node to its immediate right sibling.
	NextSiblingAxis
	// FollowingSibling is NextSibling+, the transitive closure of NextSibling.
	FollowingSibling
	// FollowingSiblingOrSelf is NextSibling*.
	FollowingSiblingOrSelf
	// PrevSiblingAxis is the inverse of NextSiblingAxis.
	PrevSiblingAxis
	// PrecedingSibling is the inverse of FollowingSibling.
	PrecedingSibling
	// PrecedingSiblingOrSelf is the inverse of FollowingSiblingOrSelf.
	PrecedingSiblingOrSelf
	// Following relates x to y iff some ancestor-or-self of x has a following
	// sibling that is an ancestor-or-self of y (x entirely precedes y and y is
	// not a descendant of x).
	Following
	// Preceding is the inverse of Following.
	Preceding

	numAxes
)

var axisNames = [...]string{
	Self:                   "Self",
	Child:                  "Child",
	Descendant:             "Child+",
	DescendantOrSelf:       "Child*",
	Parent:                 "Parent",
	Ancestor:               "Ancestor",
	AncestorOrSelf:         "Ancestor-or-self",
	NextSiblingAxis:        "NextSibling",
	FollowingSibling:       "NextSibling+",
	FollowingSiblingOrSelf: "NextSibling*",
	PrevSiblingAxis:        "PrevSibling",
	PrecedingSibling:       "NextSibling+^-1",
	PrecedingSiblingOrSelf: "NextSibling*^-1",
	Following:              "Following",
	Preceding:              "Preceding",
}

// String returns the name of the axis in the notation of the paper
// (e.g. "Child+", "NextSibling*", "Following").
func (a Axis) String() string {
	if a < 0 || int(a) >= len(axisNames) {
		return fmt.Sprintf("Axis(%d)", int(a))
	}
	return axisNames[a]
}

// AllAxes returns all axes supported by the package.
func AllAxes() []Axis {
	out := make([]Axis, 0, numAxes)
	for a := Axis(0); a < numAxes; a++ {
		out = append(out, a)
	}
	return out
}

// ParseAxis parses an axis name.  Both the paper's notation ("Child+",
// "NextSibling*") and the XPath-style names ("descendant", "following-sibling")
// are accepted, case-insensitively for the latter.
func ParseAxis(s string) (Axis, error) {
	switch s {
	case "Self", "self":
		return Self, nil
	case "Child", "child":
		return Child, nil
	case "Child+", "Descendant", "descendant":
		return Descendant, nil
	case "Child*", "Descendant-or-self", "descendant-or-self":
		return DescendantOrSelf, nil
	case "Parent", "parent":
		return Parent, nil
	case "Ancestor", "ancestor":
		return Ancestor, nil
	case "Ancestor-or-self", "ancestor-or-self":
		return AncestorOrSelf, nil
	case "NextSibling", "next-sibling":
		return NextSiblingAxis, nil
	case "NextSibling+", "Following-Sibling", "following-sibling":
		return FollowingSibling, nil
	case "NextSibling*", "following-sibling-or-self":
		return FollowingSiblingOrSelf, nil
	case "PrevSibling", "previous-sibling":
		return PrevSiblingAxis, nil
	case "NextSibling+^-1", "Preceding-Sibling", "preceding-sibling":
		return PrecedingSibling, nil
	case "NextSibling*^-1", "preceding-sibling-or-self":
		return PrecedingSiblingOrSelf, nil
	case "Following", "following":
		return Following, nil
	case "Preceding", "preceding":
		return Preceding, nil
	}
	return Self, fmt.Errorf("tree: unknown axis %q", s)
}

// Inverse returns the inverse axis: Inverse(a).Holds(t, x, y) iff
// a.Holds(t, y, x).
func (a Axis) Inverse() Axis {
	switch a {
	case Self:
		return Self
	case Child:
		return Parent
	case Descendant:
		return Ancestor
	case DescendantOrSelf:
		return AncestorOrSelf
	case Parent:
		return Child
	case Ancestor:
		return Descendant
	case AncestorOrSelf:
		return DescendantOrSelf
	case NextSiblingAxis:
		return PrevSiblingAxis
	case FollowingSibling:
		return PrecedingSibling
	case FollowingSiblingOrSelf:
		return PrecedingSiblingOrSelf
	case PrevSiblingAxis:
		return NextSiblingAxis
	case PrecedingSibling:
		return FollowingSibling
	case PrecedingSiblingOrSelf:
		return FollowingSiblingOrSelf
	case Following:
		return Preceding
	case Preceding:
		return Following
	}
	panic(fmt.Sprintf("tree: Inverse of unknown axis %d", int(a)))
}

// IsForward reports whether a is one of the forward axes.
func (a Axis) IsForward() bool {
	switch a {
	case Self, Child, Descendant, DescendantOrSelf,
		NextSiblingAxis, FollowingSibling, FollowingSiblingOrSelf, Following:
		return true
	}
	return false
}

// IsReflexive reports whether a(x, x) holds at every node (it holds at none
// for the other axes).
func (a Axis) IsReflexive() bool {
	switch a {
	case Self, DescendantOrSelf, AncestorOrSelf, FollowingSiblingOrSelf, PrecedingSiblingOrSelf:
		return true
	}
	return false
}

// Holds reports whether the axis relation a(x, y) holds in t.  Every test is
// O(1): a subtree is the NodeID interval [x, End(x)] (the preorder index is
// the NodeID itself), so Child+ is x < y <= End(x) and Following is
// End(x) < y, and the local axes compare parents or sibling links.
func (t *Tree) Holds(a Axis, x, y NodeID) bool {
	switch a {
	case Self:
		return x == y
	case Child:
		return t.parent[y] == x
	case Parent:
		return t.parent[x] == y
	case Descendant:
		// x is a proper ancestor of y:  x <pre y  and  y <post x.
		return x < y && y <= t.End(x)
	case Ancestor:
		return y < x && x <= t.End(y)
	case DescendantOrSelf:
		return x <= y && y <= t.End(x)
	case AncestorOrSelf:
		return y <= x && x <= t.End(y)
	case NextSiblingAxis:
		return t.NextSibling(x) == y
	case PrevSiblingAxis:
		return t.prevSibling[x] == y
	case FollowingSibling:
		return t.parent[x] != InvalidNode && t.parent[x] == t.parent[y] && x < y
	case PrecedingSibling:
		return t.parent[x] != InvalidNode && t.parent[x] == t.parent[y] && y < x
	case FollowingSiblingOrSelf:
		return x == y || (t.parent[x] != InvalidNode && t.parent[x] == t.parent[y] && x < y)
	case PrecedingSiblingOrSelf:
		return x == y || (t.parent[x] != InvalidNode && t.parent[x] == t.parent[y] && y < x)
	case Following:
		// x <pre y and x <post y (x entirely precedes y).
		return t.End(x) < y
	case Preceding:
		return t.End(y) < x
	}
	panic(fmt.Sprintf("tree: Holds of unknown axis %d", int(a)))
}

// Step returns, in document order, all nodes y such that a(n, y) holds.
// This is the node-set semantics of a single XPath location step.
func (t *Tree) Step(a Axis, n NodeID) []NodeID {
	var out []NodeID
	t.StepFunc(a, n, func(y NodeID) bool {
		out = append(out, y)
		return true
	})
	return out
}

// StepFunc calls yield for each node y with a(n, y), in document order,
// stopping early when yield returns false.  It avoids allocating result
// slices in inner loops of the evaluators.
func (t *Tree) StepFunc(a Axis, n NodeID, yield func(NodeID) bool) {
	switch a {
	case Self:
		yield(n)
	case Child:
		for c := n + 1; c <= t.End(n); c += NodeID(t.size[c]) {
			if !yield(c) {
				return
			}
		}
	case Parent:
		if p := t.parent[n]; p != InvalidNode {
			yield(p)
		}
	case Descendant, DescendantOrSelf:
		// The descendants of n are exactly the NodeIDs (n, n+size(n)-1].
		start := n
		if a == Descendant {
			start++
		}
		for y := start; y <= t.End(n); y++ {
			if !yield(y) {
				return
			}
		}
	case Ancestor, AncestorOrSelf:
		// Yield ancestors in document order (root first).
		var anc []NodeID
		for p := t.parent[n]; p != InvalidNode; p = t.parent[p] {
			anc = append(anc, p)
		}
		for i := len(anc) - 1; i >= 0; i-- {
			if !yield(anc[i]) {
				return
			}
		}
		if a == AncestorOrSelf {
			yield(n)
		}
	case NextSiblingAxis:
		if s := t.NextSibling(n); s != InvalidNode {
			yield(s)
		}
	case PrevSiblingAxis:
		if s := t.prevSibling[n]; s != InvalidNode {
			yield(s)
		}
	case FollowingSibling, FollowingSiblingOrSelf:
		if a == FollowingSiblingOrSelf {
			if !yield(n) {
				return
			}
		}
		for s := t.NextSibling(n); s != InvalidNode; s = t.NextSibling(s) {
			if !yield(s) {
				return
			}
		}
	case PrecedingSibling, PrecedingSiblingOrSelf:
		// Document order for preceding siblings is left-to-right: the
		// subtrees that tile the parent's interval up to n.
		if p := t.parent[n]; p != InvalidNode {
			for s := p + 1; s < n; s += NodeID(t.size[s]) {
				if !yield(s) {
					return
				}
			}
		}
		if a == PrecedingSiblingOrSelf {
			yield(n)
		}
	case Following:
		// Nodes y with pre(n) < pre(y) and post(n) < post(y): the nodes after
		// the subtree of n in document order.
		for y := t.End(n) + 1; int(y) < t.Len(); y++ {
			if !yield(y) {
				return
			}
		}
	case Preceding:
		// Nodes y with pre(y) < pre(n) and post(y) < post(n): nodes strictly
		// before n in document order that are not ancestors of n.
		for y := range n {
			if t.End(y) < n {
				if !yield(y) {
					return
				}
			}
		}
	default:
		panic(fmt.Sprintf("tree: Step of unknown axis %d", int(a)))
	}
}

// Pairs returns all pairs (x, y) with a(x, y), in lexicographic document
// order of (x, y).  Intended for tests and for materializing axis relations
// into the relational store; cost is proportional to the output.
func (t *Tree) Pairs(a Axis) [][2]NodeID {
	var out [][2]NodeID
	for x := range NodeID(t.Len()) {
		t.StepFunc(a, x, func(y NodeID) bool {
			out = append(out, [2]NodeID{x, y})
			return true
		})
	}
	return out
}

// Order identifies one of the three total orders on tree nodes studied in
// Section 2 of the paper.
type Order int

const (
	// PreOrder is <pre, document order.
	PreOrder Order = iota
	// PostOrder is <post.
	PostOrder
	// BFLROrder is <bflr, breadth-first left-to-right order.
	BFLROrder

	numOrders
)

// String returns the conventional name of the order.
func (o Order) String() string {
	switch o {
	case PreOrder:
		return "<pre"
	case PostOrder:
		return "<post"
	case BFLROrder:
		return "<bflr"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// AllOrders returns the three orders <pre, <post, <bflr.
func AllOrders() []Order { return []Order{PreOrder, PostOrder, BFLROrder} }

// Less reports whether x comes strictly before y in order o.  <post compares
// Post, and <bflr is (depth, preorder) in lexicographic order.
func (t *Tree) Less(o Order, x, y NodeID) bool {
	switch o {
	case PreOrder:
		return x < y
	case PostOrder:
		return t.Post(x) < t.Post(y)
	case BFLROrder:
		return t.depth[x] < t.depth[y] || t.depth[x] == t.depth[y] && x < y
	}
	panic(fmt.Sprintf("tree: Less of unknown order %d", int(o)))
}

// NodesInOrder returns all nodes sorted by order o (ascending), in O(n):
// postorder places each node at its Post, and breadth-first order is a
// counting sort on depth that keeps document order within a level.
func (t *Tree) NodesInOrder(o Order) []NodeID {
	switch o {
	case PreOrder:
		return t.Nodes()
	case PostOrder:
		out := make([]NodeID, t.Len())
		for v := range NodeID(t.Len()) {
			out[t.Post(v)-1] = v
		}
		return out
	case BFLROrder:
		out := make([]NodeID, t.Len())
		next := make([]int, t.height+1) // next[d]: where the next node of depth d goes
		for _, d := range t.depth {
			next[d+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for v := range NodeID(t.Len()) {
			out[next[t.depth[v]]] = v
			next[t.depth[v]]++
		}
		return out
	}
	panic(fmt.Sprintf("tree: NodesInOrder of unknown order %d", int(o)))
}
