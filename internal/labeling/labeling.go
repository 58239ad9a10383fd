// Package labeling implements node labeling schemes for trees and the
// structural joins built on them (Section 2 of the paper).
//
// The central scheme is the XASR (extended access support relation) of
// Figure 2: one tuple (pre, post, parent_pre, label) per node.  Every axis
// of the paper then becomes a conjunction of inequalities over these
// numbers, so "find all pairs of nodes related by axis A" is a single
// theta-join on the XASR (Example 2.1) rather than a transitive-closure
// computation.  The package also provides a region (interval) encoding and
// a level-aware variant, and the quadratic transitive-closure baseline used
// by the E2 ablation benchmark.
package labeling

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/relstore"
	"repro/internal/tree"
)

// XASR is the extended access support relation of a tree: a relational view
// with one row per node and columns pre, post, parent_pre and lab (label
// code).  parent_pre is 0 for the root (the paper uses NULL; 0 is free
// because pre indexes are 1-based).
//
// An XASR is immutable after BuildXASR returns and is safe for concurrent
// readers; the per-label sub-relations handed out by NodesWithLabel are
// memoized behind a lock and must be treated as read-only.
type XASR struct {
	rel  *relstore.Relation
	dict *relstore.Dict
	tr   *tree.Tree

	mu      sync.RWMutex
	byLabel map[string]*relstore.Relation
}

// Columns of the XASR relation.
const (
	ColPre       = "pre"
	ColPost      = "post"
	ColParentPre = "parent_pre"
	ColLab       = "lab"
)

// BuildXASR materializes the XASR of a tree.  Only the primary label of each
// node is stored in the lab column (matching Figure 2); multi-label nodes
// are still fully supported by the evaluators that work on the tree
// directly.
//
// The rows are laid out in one contiguous backing array (columnar-friendly:
// the Relation's Column accessor then exposes the parallel pre/post/
// parent_pre/lab arrays with the interned label table in Dict), and built in
// document order, so row i is the node with preorder index i+1.
func BuildXASR(t *tree.Tree) *XASR {
	rel := relstore.NewRelation("R", ColPre, ColPost, ColParentPre, ColLab)
	dict := relstore.NewDict()
	n := t.Len()
	backing := make(relstore.Tuple, 4*n)
	for v := range tree.NodeID(n) {
		i := int(v)
		parentPre := int64(0)
		if p := t.Parent(v); p != tree.InvalidNode {
			parentPre = int64(t.Pre(p))
		}
		row := backing[4*i : 4*i+4 : 4*i+4]
		row[0], row[1], row[2], row[3] = int64(t.Pre(v)), int64(t.Post(v)), parentPre, dict.Code(t.Label(v))
		rel.InsertRow(row)
	}
	return &XASR{rel: rel, dict: dict, tr: t, byLabel: map[string]*relstore.Relation{}}
}

// Relation returns the underlying relation (columns pre, post, parent_pre,
// lab).
func (x *XASR) Relation() *relstore.Relation { return x.rel }

// Dict returns the label dictionary used by the lab column.
func (x *XASR) Dict() *relstore.Dict { return x.dict }

// Tree returns the tree the XASR was built from.
func (x *XASR) Tree() *tree.Tree { return x.tr }

// String renders the XASR as the table of Figure 2 (b), with labels decoded.
func (x *XASR) String() string {
	s := fmt.Sprintf("%s(%s, %s, %s, %s)\n", x.rel.Name(), ColPre, ColPost, ColParentPre, ColLab)
	for _, t := range x.rel.Tuples() {
		parent := "NULL"
		if t[2] != 0 {
			parent = fmt.Sprintf("%d", t[2])
		}
		s += fmt.Sprintf("%3d %3d %5s  %s\n", t[0], t[1], parent, x.dict.String(t[3]))
	}
	return s
}

// NodesWithLabel returns the sub-relation of nodes carrying the given
// (primary) label, or an empty relation if the label does not occur.  The
// result is memoized per label and shared: callers must not mutate it.
func (x *XASR) NodesWithLabel(label string) *relstore.Relation {
	x.mu.RLock()
	r, ok := x.byLabel[label]
	x.mu.RUnlock()
	if ok {
		return r
	}
	var built *relstore.Relation
	if code, ok := x.dict.Lookup(label); ok {
		built = x.rel.SelectEq("R_"+label, ColLab, code)
	} else {
		built = relstore.NewRelation("R_"+label, ColPre, ColPost, ColParentPre, ColLab)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if cached, ok := x.byLabel[label]; ok {
		return cached
	}
	x.byLabel[label] = built
	return built
}

// axisPredicate returns the theta-join predicate over two XASR tuples a
// (bound to the first/“from” variable) and b (the second/“to” variable)
// expressing axis(a, b).  This is the translation of every axis into
// inequalities over pre/post/parent_pre indexes (Section 2):
//
//	Child(a,b)        :  b.parent_pre = a.pre
//	Child+(a,b)       :  a.pre < b.pre AND b.post < a.post
//	Child*(a,b)       :  a.pre <= b.pre AND b.post <= a.post
//	NextSibling+(a,b) :  a.parent_pre = b.parent_pre AND a.pre < b.pre
//	Following(a,b)    :  a.pre < b.pre AND a.post < b.post
//
// and so on; the local axes NextSibling/PrevSibling additionally need the
// "no sibling in between" condition, which is expressed via the tree rather
// than by a pure inequality (they are not needed for structural joins in the
// paper, but are supported for completeness).
func (x *XASR) axisPredicate(a tree.Axis) func(u, v relstore.Tuple) bool {
	const (
		pre    = 0
		post   = 1
		parent = 2
	)
	switch a {
	case tree.Self:
		return func(u, v relstore.Tuple) bool { return u[pre] == v[pre] }
	case tree.Child:
		return func(u, v relstore.Tuple) bool { return v[parent] == u[pre] }
	case tree.Parent:
		return func(u, v relstore.Tuple) bool { return u[parent] == v[pre] }
	case tree.Descendant:
		return func(u, v relstore.Tuple) bool { return u[pre] < v[pre] && v[post] < u[post] }
	case tree.DescendantOrSelf:
		return func(u, v relstore.Tuple) bool { return u[pre] <= v[pre] && v[post] <= u[post] }
	case tree.Ancestor:
		return func(u, v relstore.Tuple) bool { return v[pre] < u[pre] && u[post] < v[post] }
	case tree.AncestorOrSelf:
		return func(u, v relstore.Tuple) bool { return v[pre] <= u[pre] && u[post] <= v[post] }
	case tree.FollowingSibling:
		return func(u, v relstore.Tuple) bool {
			return u[parent] != 0 && u[parent] == v[parent] && u[pre] < v[pre]
		}
	case tree.FollowingSiblingOrSelf:
		return func(u, v relstore.Tuple) bool {
			return u[pre] == v[pre] || (u[parent] != 0 && u[parent] == v[parent] && u[pre] < v[pre])
		}
	case tree.PrecedingSibling:
		return func(u, v relstore.Tuple) bool {
			return u[parent] != 0 && u[parent] == v[parent] && v[pre] < u[pre]
		}
	case tree.PrecedingSiblingOrSelf:
		return func(u, v relstore.Tuple) bool {
			return u[pre] == v[pre] || (u[parent] != 0 && u[parent] == v[parent] && v[pre] < u[pre])
		}
	case tree.Following:
		return func(u, v relstore.Tuple) bool { return u[pre] < v[pre] && u[post] < v[post] }
	case tree.Preceding:
		return func(u, v relstore.Tuple) bool { return v[pre] < u[pre] && v[post] < u[post] }
	case tree.NextSiblingAxis:
		t := x.tr
		return func(u, v relstore.Tuple) bool {
			s := t.NextSibling(tree.NodeID(u[pre] - 1))
			return s != tree.InvalidNode && int64(t.Pre(s)) == v[pre]
		}
	case tree.PrevSiblingAxis:
		t := x.tr
		return func(u, v relstore.Tuple) bool {
			s := t.PrevSibling(tree.NodeID(u[pre] - 1))
			return s != tree.InvalidNode && int64(t.Pre(s)) == v[pre]
		}
	}
	panic(fmt.Sprintf("labeling: no predicate for axis %v", a))
}

// StructuralJoinNestedLoop computes, as a relation of (from_pre, to_pre)
// pairs, all pairs of nodes (u, v) with fromLabel(u), toLabel(v) and
// axis(u, v), using a quadratic nested-loop theta-join over the XASR.
// Empty labels mean "any node".  This is the ablation baseline.
func (x *XASR) StructuralJoinNestedLoop(axis tree.Axis, fromLabel, toLabel string) *relstore.Relation {
	from := x.side(fromLabel, "from")
	to := x.side(toLabel, "to")
	pred := x.axisPredicate(axis)
	joined := from.ThetaJoinNestedLoop("sj", to, pred)
	return pairProjection(joined)
}

// StructuralJoin computes the same pair relation as
// StructuralJoinNestedLoop but uses the sort-merge/stack interval join for
// the region axes (Child+, Child*, Following and inverses), which runs in
// O(n log n + output) instead of O(n^2).  For the remaining axes it falls
// back to the nested-loop join.
//
// The label restrictions select on the XASR's lab column, i.e. on primary
// labels (Figure 2 stores one label per node).  For label-complete joins over
// multi-labeled trees use StructuralPairs, which joins label-complete sides
// (LabelRows).
func (x *XASR) StructuralJoin(axis tree.Axis, fromLabel, toLabel string) *relstore.Relation {
	// The sides are never mutated by structuralJoinSides, so the shared
	// (memoized) relations are passed directly: their extracted columns stay
	// cached across calls instead of being re-extracted from per-call clones.
	return x.structuralJoinSides(axis, x.sideShared(fromLabel), x.sideShared(toLabel))
}

// subRelation returns an XASR-schema relation holding the rows of exactly the
// given nodes, in the given order.  It is the building block for
// label-complete structural-join sides: callers select the nodes by any
// predicate over all labels (not just the primary one in the lab column) and
// join the resulting sides with structuralJoinSides.  The rows are shared
// with the XASR and must be treated as read-only.
func (x *XASR) subRelation(name string, nodes []tree.NodeID) *relstore.Relation {
	out := relstore.NewRelation(name, ColPre, ColPost, ColParentPre, ColLab)
	if len(nodes) == 0 {
		return out
	}
	// Row i of the XASR is the node with preorder index i+1, NodeID i.
	rows := x.rel.Tuples()
	for _, n := range nodes {
		out.InsertRow(rows[n])
	}
	return out
}

// LabelRows returns the label-complete side relation of the label: one
// XASR-schema row per node carrying the label in any position (unlike the
// lab column, which records only primary labels), in document order.  An
// empty label means the whole XASR.  The rows are shared with the XASR and
// must be treated as read-only.
func (x *XASR) LabelRows(label string) *relstore.Relation {
	if label == "" {
		return x.rel
	}
	return x.subRelation("R_"+label, x.tr.NodesWithLabel(label))
}

// StructuralPairs returns the (from_pre, to_pre) pair relation of
// axis(from, to) with the given (possibly empty) label restrictions, or
// ok=false for axes without a sub-quadratic join.  The sides are
// label-complete (LabelRows), so the join is sound on multi-labeled trees,
// attribute-labeled documents included.
func (x *XASR) StructuralPairs(axis tree.Axis, fromLabel, toLabel string) (*relstore.Relation, bool) {
	switch axis {
	case tree.Child, tree.Descendant, tree.Ancestor:
		return x.structuralJoinSides(axis, x.LabelRows(fromLabel), x.LabelRows(toLabel)), true
	}
	return nil, false
}

// structuralJoinSides computes the (from_pre, to_pre) pair relation of
// axis(u, v) for u ranging over the rows of from and v over the rows of to;
// both sides must use the XASR schema (subRelation, NodesWithLabel, or the
// full Relation).  The region axes use the sort-merge interval join and Child
// a hash join, all sub-quadratic; other axes fall back to the nested-loop
// theta-join.  The sides are never mutated.
func (x *XASR) structuralJoinSides(axis tree.Axis, from, to *relstore.Relation) *relstore.Relation {
	switch axis {
	case tree.Descendant:
		if out, ok := intervalPairsCols(from, to, false); ok {
			return out
		}
		j := from.IntervalJoinMerge("sj", ColPre, ColPost, to, ColPre, ColPost)
		return pairProjection(j)
	case tree.Ancestor:
		// The anchor (interval) side is the to side; swap the emitted pairs
		// back to (from, to) order.
		if out, ok := intervalPairsCols(to, from, true); ok {
			return out
		}
		j := to.IntervalJoinMerge("sj", ColPre, ColPost, from, ColPre, ColPost)
		// Columns are (ancestor=to, descendant=from); swap to (from,to).
		out := relstore.NewPairs("pairs", "from_pre", "to_pre")
		for _, t := range j.Tuples() {
			out.AppendPair(t[4], t[0])
		}
		return out
	case tree.Child:
		return x.childPairs(from, to)
	default:
		pred := x.axisPredicate(axis)
		return pairProjection(from.ThetaJoinNestedLoop("sj", to, pred))
	}
}

// intervalPairsCols is the columnar fast path of the stack-based structural
// join: both sides expose dense pre/post columns, and when each side is
// already in document (ascending pre) order — true for the XASR itself, for
// its label sub-relations, and for LabelRows — the sweep
// runs directly over the column arrays with an index stack, skipping the
// per-call side copies and sorts of IntervalJoinMerge entirely.  The emitted
// relation is columnar: (anchor_pre, point_pre) pairs, swapped when swap is
// set.  ok is false when a side is not pre-sorted; callers then fall back to
// the sorting merge join.
func intervalPairsCols(anchor, point *relstore.Relation, swap bool) (*relstore.Relation, bool) {
	aPre, aPost, ok := anchor.IntColumns(0, 1)
	if !ok || !sortedAsc(aPre) {
		return nil, false
	}
	dPre, dPost, ok := point.IntColumns(0, 1)
	if !ok || !sortedAsc(dPre) {
		return nil, false
	}
	out := relstore.NewPairs("pairs", "from_pre", "to_pre")
	// open holds indices of anchors whose (pre, post) interval still encloses
	// the sweep position, outermost first (a laminar family nests).
	var open []int32
	ai := 0
	for di := 0; di < len(dPre); di++ {
		// Admit anchors starting at or before this point node, retiring
		// anchors they follow (a closed anchor can enclose nothing later).
		for ai < len(aPre) && aPre[ai] <= dPre[di] {
			for len(open) > 0 && aPost[open[len(open)-1]] < aPost[ai] {
				open = open[:len(open)-1]
			}
			open = append(open, int32(ai))
			ai++
		}
		// Retire anchors this point node follows.
		for len(open) > 0 && aPost[open[len(open)-1]] < dPost[di] {
			open = open[:len(open)-1]
		}
		// Every remaining open anchor strictly encloses the point node —
		// except the node itself when it appears on both sides (equal pre;
		// the axes are strict, so it is skipped).
		for _, k := range open {
			if aPre[k] == dPre[di] {
				continue
			}
			if swap {
				out.AppendPair(dPre[di], aPre[k])
			} else {
				out.AppendPair(aPre[k], dPre[di])
			}
		}
	}
	return out, true
}

// childPairs joins parent_pre = pre with a bitset of the from side's pre
// values in place of a hash set: membership tests become single word probes.
func (x *XASR) childPairs(from, to *relstore.Relation) *relstore.Relation {
	fromPre := from.Column(0)
	toPre, toParent, _ := to.IntColumns(0, 2)
	isFrom := bitset.Acquire(x.tr.Len() + 1) // pre indexes are 1-based
	for _, p := range fromPre {
		isFrom.Set(int(p))
	}
	out := relstore.NewPairs("pairs", "from_pre", "to_pre")
	for i, par := range toParent {
		if par != 0 && isFrom.Get(int(par)) {
			out.AppendPair(par, toPre[i])
		}
	}
	bitset.Release(isFrom)
	return out
}

func sortedAsc(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// side returns the XASR restricted to a label (or the whole XASR) with the
// given relation name.
func (x *XASR) side(label, name string) *relstore.Relation {
	if label == "" {
		return x.rel.Clone(name)
	}
	r := x.NodesWithLabel(label)
	return r.Clone(name)
}

// sideShared returns the shared (memoized, read-only) side relation for a
// label; "" means the whole XASR.
func (x *XASR) sideShared(label string) *relstore.Relation {
	if label == "" {
		return x.rel
	}
	return x.NodesWithLabel(label)
}

// pairProjection projects a joined XASR×XASR relation onto the two pre
// columns (from_pre, to_pre).
func pairProjection(j *relstore.Relation) *relstore.Relation {
	out := relstore.NewPairs("pairs", "from_pre", "to_pre")
	// In the joined relation, the first 4 columns are the "from" side and the
	// next 4 the "to" side.
	for _, t := range j.Tuples() {
		out.AppendPair(t[0], t[4])
	}
	return out
}

// DescendantPairsByClosure computes all (ancestor_pre, descendant_pre) pairs
// by iterating the Child relation to a fixpoint (the naive alternative the
// paper warns against: "performing an arbitrary number of joins ... or
// storing a quadratically-sized Child+ relation").  It is the E2 baseline.
func DescendantPairsByClosure(t *tree.Tree) *relstore.Relation {
	out := relstore.NewRelation("pairs", "from_pre", "to_pre")
	// current: for each node, the set of descendants found so far, seeded with
	// children; iterate children-of-frontier until no change.
	n := t.Len()
	reach := make([][]tree.NodeID, n)
	for _, u := range t.Nodes() {
		reach[u] = append(reach[u], t.Children(u)...)
	}
	changed := true
	for changed {
		changed = false
		for _, u := range t.Nodes() {
			seen := map[tree.NodeID]bool{}
			for _, v := range reach[u] {
				seen[v] = true
			}
			before := len(reach[u])
			for _, v := range append([]tree.NodeID{}, reach[u]...) {
				for _, w := range reach[v] {
					if !seen[w] {
						seen[w] = true
						reach[u] = append(reach[u], w)
					}
				}
			}
			if len(reach[u]) != before {
				changed = true
			}
		}
	}
	for _, u := range t.Nodes() {
		for _, v := range reach[u] {
			out.Insert(int64(t.Pre(u)), int64(t.Pre(v)))
		}
	}
	return out
}

// RegionLabel is the (start, end, level) interval encoding of a node: start
// and end delimit the node's region in a left-to-right scan of the document
// with two ticks per node, and level is the depth.  Child(u,v) holds iff
// v's region is directly nested in u's region and level(v) = level(u)+1;
// Descendant needs only the nesting test.
type RegionLabel struct {
	Start, End int
	Level      int
}

// RegionLabels computes the region encoding of every node.
func RegionLabels(t *tree.Tree) []RegionLabel {
	out := make([]RegionLabel, t.Len())
	tick := 0
	var walk func(n tree.NodeID)
	walk = func(n tree.NodeID) {
		tick++
		out[n].Start = tick
		out[n].Level = t.Depth(n)
		for _, c := range t.Children(n) {
			walk(c)
		}
		tick++
		out[n].End = tick
	}
	walk(t.Root())
	return out
}

// Contains reports whether r's region strictly contains s's region, i.e.
// whether the node labeled r is a proper ancestor of the node labeled s.
func (r RegionLabel) Contains(s RegionLabel) bool {
	return r.Start < s.Start && s.End < r.End
}

// IsParentOf reports whether the node labeled r is the parent of the node
// labeled s.
func (r RegionLabel) IsParentOf(s RegionLabel) bool {
	return r.Contains(s) && s.Level == r.Level+1
}
