// Package yannakakis evaluates acyclic conjunctive queries over trees with
// Yannakakis' algorithm (Section 4 of the paper; Yannakakis, VLDB 1981):
//
//  1. one relation per atom is materialized from the tree (label atoms
//     restrict the axis relations, so selective queries stay small),
//  2. a join tree over the atoms is built by GYO ear removal,
//  3. the full reducer runs: a bottom-up semijoin pass followed by a
//     top-down semijoin pass, after which every tuple of every relation
//     participates in at least one answer (Prop. 6.9 is the arc-consistency
//     phrasing of this fact),
//  4. answers are produced by joining up the join tree, projecting away
//     columns that are no longer needed after each join, so intermediate
//     results stay output-bounded (Theorem 4.1, Prop. 4.2, Prop. 6.10).
//
// The package works for Boolean, unary, and k-ary acyclic queries.  Cyclic
// queries are rejected; rewrite them first (Theorem 5.1, package rewrite) or
// fall back to cq.EvaluateNaive.
package yannakakis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cq"
	"repro/internal/relstore"
	"repro/internal/tree"
)

// ErrCyclic is returned when the query is not acyclic.
var ErrCyclic = errors.New("yannakakis: query is not acyclic")

// ErrOrderAtoms is returned when the query contains order atoms (<pre ...),
// which this evaluator does not materialize (their relations are
// quadratically large); the rewriting module eliminates them before calling
// this package.
var ErrOrderAtoms = errors.New("yannakakis: query contains order atoms")

// Stats reports the work done by one evaluation, for the benchmark harness
// and the ablation experiments.
type Stats struct {
	Relations        int // number of materialized atom relations
	MaterializedRows int // total rows materialized before reduction
	RowsAfterReduce  int // total rows after the full reducer
	SemijoinsRun     int
	JoinsRun         int
}

// Index supplies shared document-ordered per-label node lists, so repeated
// evaluations over the same tree skip the per-call label scans when they
// materialize atom relations.  Implementations must hand out lists that are
// safe for concurrent readers; package index provides one.
type Index interface {
	// NodesWithLabel returns, in document order, the nodes carrying the label.
	NodesWithLabel(label string) []tree.NodeID
}

// Evaluate runs Yannakakis' algorithm and returns the sorted, de-duplicated
// answers.
func Evaluate(q *cq.Query, t *tree.Tree) ([]cq.Answer, error) {
	answers, _, err := evaluateWithStats(q, t, nil)
	return answers, err
}

// EvaluateIndexed is Evaluate with atom materialization served by a shared
// index (may be nil, in which case the tree is scanned per call).
func EvaluateIndexed(q *cq.Query, t *tree.Tree, ix Index) ([]cq.Answer, error) {
	answers, _, err := evaluateWithStats(q, t, ix)
	return answers, err
}

// Satisfiable evaluates the Boolean version of the query (ignoring the head).
func Satisfiable(q *cq.Query, t *tree.Tree) (bool, error) {
	b := q.Clone()
	b.Head = nil
	ans, err := Evaluate(b, t)
	if err != nil {
		return false, err
	}
	return len(ans) > 0, nil
}

// EvaluateWithStats is Evaluate plus work counters.
func EvaluateWithStats(q *cq.Query, t *tree.Tree) ([]cq.Answer, Stats, error) {
	return evaluateWithStats(q, t, nil)
}

func evaluateWithStats(q *cq.Query, t *tree.Tree, ix Index) ([]cq.Answer, Stats, error) {
	var stats Stats
	if len(q.Orders) > 0 {
		return nil, stats, ErrOrderAtoms
	}
	if !q.IsAcyclic() {
		return nil, stats, ErrCyclic
	}
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}

	rels, err := materialize(q, t, ix)
	if err != nil {
		return nil, stats, err
	}
	stats.Relations = len(rels)
	for _, r := range rels {
		stats.MaterializedRows += r.Len()
	}
	if len(rels) == 0 {
		// Empty body: the query is trivially true with the empty answer.
		return []cq.Answer{{}}, stats, nil
	}

	forest, ok := buildJoinForest(rels)
	if !ok {
		// Should not happen for acyclic queries, but keep the invariant
		// explicit rather than silently producing wrong answers.
		return nil, stats, ErrCyclic
	}

	// Full reducer: bottom-up then top-down semijoin passes.
	order := topoOrder(forest)
	for i := len(order) - 1; i >= 0; i-- { // leaves towards roots
		n := order[i]
		p := forest[n]
		if p >= 0 {
			rels[p] = rels[p].SemiJoin(rels[p].Name(), rels[n])
			stats.SemijoinsRun++
		}
	}
	for _, n := range order { // roots towards leaves
		p := forest[n]
		if p >= 0 {
			rels[n] = rels[n].SemiJoin(rels[n].Name(), rels[p])
			stats.SemijoinsRun++
		}
	}
	for _, r := range rels {
		stats.RowsAfterReduce += r.Len()
	}

	// A Boolean query is satisfied iff every relation is nonempty after the
	// reduction (emptiness anywhere propagates to everything in a component;
	// across components each must be nonempty independently).
	for _, r := range rels {
		if r.Len() == 0 {
			return nil, stats, nil
		}
	}
	if q.IsBoolean() {
		return []cq.Answer{{}}, stats, nil
	}

	headCols := make([]string, len(q.Head))
	headSet := map[string]bool{}
	for i, v := range q.Head {
		headCols[i] = string(v)
		headSet[string(v)] = true
	}

	// Join the relations component by component in top-down join-tree order,
	// projecting after each join onto head columns plus columns still needed
	// by unjoined relations of the same component.
	joined := joinComponents(rels, forest, order, headSet, &stats)

	// Combine components: answers are the cross product of the per-component
	// projections onto their head columns; components without head columns
	// only gate satisfiability (already checked above).
	result := relstore.NewRelation("answers")
	result.Insert() // single empty tuple to cross-product against
	for _, jr := range joined {
		var keep []string
		for _, c := range jr.Columns() {
			if headSet[c] {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			continue
		}
		proj := jr.Project("p", keep...).Distinct("p")
		result = result.NaturalJoin("answers", proj)
		stats.JoinsRun++
	}

	// Assemble answers in head order.
	colIdx := make([]int, len(headCols))
	for i, c := range headCols {
		colIdx[i] = result.ColumnIndex(c)
		if colIdx[i] < 0 {
			return nil, stats, fmt.Errorf("yannakakis: internal error: head column %s missing from result", c)
		}
	}
	tuples := result.Tuples()
	answers := make([]cq.Answer, len(tuples))
	for j, tp := range tuples {
		ans := make(cq.Answer, len(colIdx))
		for i, ci := range colIdx {
			ans[i] = tree.NodeID(tp[ci])
		}
		answers[j] = ans
	}
	return cq.SortDedupAnswers(answers), stats, nil
}

// materialize builds one relation per atom.  Binary atoms give two-column
// relations over the axis pairs restricted by the label atoms of both
// endpoints; variables that occur only in label atoms give one-column
// relations.  Column names are the variable names, so natural joins and
// semijoins align automatically.
func materialize(q *cq.Query, t *tree.Tree, ix Index) ([]*relstore.Relation, error) {
	labelsOf := map[cq.Variable][]string{}
	codesOf := map[cq.Variable][]tree.Code{}
	for _, v := range q.Variables() {
		labelsOf[v] = q.LabelsOf(v)
		codesOf[v] = t.Dict().Codes(labelsOf[v])
	}
	matches := func(n tree.NodeID, v cq.Variable) bool { return t.HasCodes(n, codesOf[v]) }
	// candidates returns the nodes that can possibly bind v, served from the
	// index's per-label lists when available.
	candidates := func(v cq.Variable) []tree.NodeID {
		if ix != nil && len(labelsOf[v]) > 0 {
			return ix.NodesWithLabel(labelsOf[v][0])
		}
		return t.Nodes()
	}

	var rels []*relstore.Relation
	coveredByBinary := map[cq.Variable]bool{}
	for i, a := range q.Axes {
		if a.From == a.To {
			// R(x, x): a unary condition on x.
			r := relstore.NewRelation(fmt.Sprintf("atom%d", i), string(a.From))
			for _, n := range candidates(a.From) {
				if matches(n, a.From) && t.Holds(a.Axis, n, n) {
					r.Insert(int64(n))
				}
			}
			rels = append(rels, r)
			coveredByBinary[a.From] = true
			continue
		}
		r := relstore.NewRelation(fmt.Sprintf("atom%d", i), string(a.From), string(a.To))
		for _, u := range candidates(a.From) {
			if !matches(u, a.From) {
				continue
			}
			t.StepFunc(a.Axis, u, func(v tree.NodeID) bool {
				if matches(v, a.To) {
					r.Insert(int64(u), int64(v))
				}
				return true
			})
		}
		rels = append(rels, r)
		coveredByBinary[a.From] = true
		coveredByBinary[a.To] = true
	}
	for _, v := range q.Variables() {
		if coveredByBinary[v] {
			continue
		}
		if len(labelsOf[v]) == 0 && !headContains(q, v) {
			// Variable constrained by nothing: it cannot appear (Validate
			// guarantees head variables occur in the body), so skip.
			continue
		}
		r := relstore.NewRelation("unary_"+string(v), string(v))
		for _, n := range candidates(v) {
			if matches(n, v) {
				r.Insert(int64(n))
			}
		}
		rels = append(rels, r)
	}
	return rels, nil
}

func headContains(q *cq.Query, v cq.Variable) bool {
	for _, h := range q.Head {
		if h == v {
			return true
		}
	}
	return false
}

// buildJoinForest runs GYO ear removal over the relations' column sets and
// returns parent indices (-1 for roots), or ok=false if the hypergraph is
// cyclic.
func buildJoinForest(rels []*relstore.Relation) (parent []int, ok bool) {
	n := len(rels)
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	removed := make([]bool, n)
	live := n
	vars := make([]map[string]bool, n)
	for i, r := range rels {
		vars[i] = map[string]bool{}
		for _, c := range r.Columns() {
			vars[i][c] = true
		}
	}
	for live > 1 {
		progress := false
		for i := 0; i < n && live > 1; i++ {
			if removed[i] {
				continue
			}
			var shared []string
			for v := range vars[i] {
				for j := 0; j < n; j++ {
					if j != i && !removed[j] && vars[j][v] {
						shared = append(shared, v)
						break
					}
				}
			}
			witness := -1
			if len(shared) == 0 {
				witness = -2
			} else {
				for j := 0; j < n; j++ {
					if j == i || removed[j] {
						continue
					}
					all := true
					for _, v := range shared {
						if !vars[j][v] {
							all = false
							break
						}
					}
					if all {
						witness = j
						break
					}
				}
			}
			if witness == -1 {
				continue
			}
			removed[i] = true
			live--
			if witness >= 0 {
				parent[i] = witness
			}
			progress = true
		}
		if !progress {
			return nil, false
		}
	}
	return parent, true
}

// topoOrder returns the relation indices ordered so that parents come before
// children (roots first).
func topoOrder(parent []int) []int {
	n := len(parent)
	depth := make([]int, n)
	var depthOf func(i int) int
	depthOf = func(i int) int {
		if parent[i] < 0 {
			return 0
		}
		if depth[i] == 0 {
			depth[i] = depthOf(parent[i]) + 1
		}
		return depth[i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
		depthOf(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return depth[idx[a]] < depth[idx[b]] })
	return idx
}

// joinComponents joins the reduced relations of every join-tree component in
// top-down order, projecting eagerly.  Returns one joined relation per
// component.
func joinComponents(rels []*relstore.Relation, forest []int, order []int, headSet map[string]bool, stats *Stats) []*relstore.Relation {
	n := len(rels)
	// Identify component root for each relation.
	rootOf := make([]int, n)
	for i := range rootOf {
		r := i
		for forest[r] >= 0 {
			r = forest[r]
		}
		rootOf[i] = r
	}
	// Group members by root preserving top-down order.
	members := map[int][]int{}
	for _, i := range order {
		members[rootOf[i]] = append(members[rootOf[i]], i)
	}
	var roots []int
	for r := range members {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	var out []*relstore.Relation
	for _, root := range roots {
		ms := members[root]
		acc := rels[ms[0]]
		for k := 1; k < len(ms); k++ {
			acc = acc.NaturalJoin("acc", rels[ms[k]])
			stats.JoinsRun++
			// Project away columns not needed anymore: keep head columns and
			// columns occurring in any not-yet-joined member of this component.
			needed := map[string]bool{}
			for c := range headSet {
				needed[c] = true
			}
			for k2 := k + 1; k2 < len(ms); k2++ {
				for _, c := range rels[ms[k2]].Columns() {
					needed[c] = true
				}
			}
			var keep []string
			for _, c := range acc.Columns() {
				if needed[c] {
					keep = append(keep, c)
				}
			}
			if len(keep) == 0 {
				// Nothing of this component is needed downstream beyond its
				// nonemptiness; collapse to a single witness tuple.
				if acc.Len() > 0 {
					w := relstore.NewRelation("acc")
					w.Insert()
					acc = w
				} else {
					acc = relstore.NewRelation("acc")
				}
				continue
			}
			if len(keep) < acc.Arity() {
				acc = acc.Project("acc", keep...).Distinct("acc")
			}
		}
		out = append(out, acc)
	}
	return out
}
