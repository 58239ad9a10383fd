package rewrite

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/tree"
)

// ToAcyclicUnion rewrites a conjunctive query over trees into an equivalent
// finite union of acyclic conjunctive queries, following the proof of
// Theorem 5.1:
//
//  1. reverse axes are flipped to forward axes (MakeForward),
//  2. Following-atoms are eliminated using the definition
//     Following(x,y) ⇔ ∃x0 ∃y0 NextSibling+(x0,y0) ∧ Child*(x0,x) ∧ Child*(y0,y),
//  3. the query is split into one disjunct per ordered partition of its
//     variables (every way the variables can coincide / be <pre-ordered)
//     that respects the order its atoms imply (searchPartitions),
//  4. within each disjunct, reflexive-transitive atoms are strengthened to
//     transitive ones, trivially unsatisfiable combinations are pruned, and
//     the Table-1 rewriting loop re-targets atoms R(x,z), S(y,z) sharing
//     their second variable until the disjunct's atom graph is a forest,
//  5. the <pre atoms are dropped (an equivalent step, as shown in the proof)
//     and the de-duplicated set of acyclic disjuncts is returned.
//
// The head of every returned disjunct equals the head of the input query, so
// the union of the disjuncts' answer sets equals the input query's answer
// set.  The blow-up is exponential in the number of variables, which is
// unavoidable (Section 5): a split that would search more than SearchBudget
// placements fails with ErrSearchBudget.
func ToAcyclicUnion(q *cq.Query) (disjuncts []*cq.Query, placements int, err error) {
	if len(q.Orders) > 0 {
		return nil, 0, fmt.Errorf("rewrite: input query must not contain order atoms")
	}
	work := eliminateFollowing(MakeForward(q))
	seen := map[string]bool{}
	placements, ok := searchPartitions(work, work.Variables(), func(partition [][]cq.Variable) {
		if d, ok := rewriteDisjunct(work, partition); ok {
			if key := canonicalKey(d); !seen[key] {
				seen[key] = true
				disjuncts = append(disjuncts, d)
			}
		}
	})
	if !ok {
		return nil, placements, ErrSearchBudget
	}
	return disjuncts, placements, nil
}

// eliminateFollowing replaces every Following(x, y) atom by
// Child*(x0, x), NextSibling+(x0, y0), Child*(y0, y) with fresh variables
// x0, y0 (and Preceding atoms are first flipped by MakeForward, so they do
// not occur here).
func eliminateFollowing(q *cq.Query) *cq.Query {
	out := q.Clone()
	var kept []cq.AxisAtom
	fresh := 0
	for _, a := range out.Axes {
		if a.Axis != tree.Following {
			kept = append(kept, a)
			continue
		}
		x0 := cq.Variable(fmt.Sprintf("_f%da", fresh))
		y0 := cq.Variable(fmt.Sprintf("_f%db", fresh))
		fresh++
		kept = append(kept,
			cq.AxisAtom{Axis: tree.DescendantOrSelf, From: x0, To: a.From},
			cq.AxisAtom{Axis: tree.FollowingSibling, From: x0, To: y0},
			cq.AxisAtom{Axis: tree.DescendantOrSelf, From: y0, To: a.To},
		)
	}
	out.Axes = kept
	return out
}

// searchPartitions hands yield, depth first, every ordered set partition of
// vars that respects the order q's atoms imply (see ordered).  vars[i] joins
// each block in turn, then opens a new block at each position; either keeps
// the relative order of the variables already placed, so a placement an
// atom refutes is cut with all its completions.  yield must not keep the
// partition.  It returns the placements searched, and false when they would
// exceed SearchBudget.
func searchPartitions(q *cq.Query, vars []cq.Variable, yield func([][]cq.Variable)) (placements int, ok bool) {
	var rec func(i int, blocks [][]cq.Variable) bool
	rec = func(i int, blocks [][]cq.Variable) bool {
		if i > 0 {
			if !ordered(q, blocks, vars[i-1]) {
				return true
			}
			if placements++; placements > SearchBudget {
				return false
			}
		}
		if i == len(vars) {
			yield(blocks)
			return true
		}
		v := vars[i]
		for j := range blocks {
			blocks[j] = append(blocks[j], v)
			ok := rec(i+1, blocks)
			blocks[j] = blocks[j][:len(blocks[j])-1]
			if !ok {
				return false
			}
		}
		for pos := 0; pos <= len(blocks); pos++ {
			if !rec(i+1, slices.Insert(slices.Clip(blocks), pos, []cq.Variable{v})) {
				return false
			}
		}
		return true
	}
	ok = rec(0, nil)
	return placements, ok
}

// ordered reports whether every atom of q between v and a placed variable
// keeps the order its axis implies: Child, Child+, NextSibling and
// NextSibling+ need from's block strictly before to's, Child* and
// NextSibling* no later than it, Self the same block.
func ordered(q *cq.Query, blocks [][]cq.Variable, v cq.Variable) bool {
	rank := func(u cq.Variable) int {
		return slices.IndexFunc(blocks, func(b []cq.Variable) bool { return slices.Contains(b, u) })
	}
	for _, a := range q.Axes {
		if a.From != v && a.To != v {
			continue
		}
		from, to := rank(a.From), rank(a.To)
		if from < 0 || to < 0 {
			continue
		}
		switch a.Axis {
		case tree.Self:
			if from != to {
				return false
			}
		case tree.DescendantOrSelf, tree.FollowingSiblingOrSelf:
			if from > to {
				return false
			}
		case tree.Child, tree.Descendant, tree.NextSiblingAxis, tree.FollowingSibling:
			if from >= to {
				return false
			}
		}
	}
	return true
}

// rewriteDisjunct specializes q to one ordered partition of its variables
// and runs the simplification loop of the proof of Theorem 5.1.  It returns
// the resulting acyclic query and true, or false if the disjunct is
// unsatisfiable.
func rewriteDisjunct(q *cq.Query, partition [][]cq.Variable) (*cq.Query, bool) {
	// Representative of each variable and rank (position of its block).
	rep := map[cq.Variable]cq.Variable{}
	rank := map[cq.Variable]int{}
	for i, block := range partition {
		r := block[0]
		for _, v := range block {
			rep[v] = r
			rank[v] = i
		}
	}
	d := &cq.Query{}
	// Head keeps the original variables but substituted by representatives.
	for _, v := range q.Head {
		d.Head = append(d.Head, rep[v])
	}
	for _, a := range q.Labels {
		d.Labels = append(d.Labels, cq.LabelAtom{Var: rep[a.Var], Label: a.Label})
	}

	type batom struct {
		axis     tree.Axis
		from, to cq.Variable
	}
	rankOf := func(v cq.Variable) int { return rank[v] }

	// Step 2 of the proof: handle reflexive-transitive closures and equality.
	// The partition respects every atom's order (searchPartitions cuts the
	// others), so Self and R*(x,x) atoms hold, and every other atom runs from
	// an earlier block to a later one.
	var atoms []batom
	for _, a := range q.Axes {
		from, to := rep[a.From], rep[a.To]
		switch a.Axis {
		case tree.Self:
		case tree.DescendantOrSelf, tree.FollowingSiblingOrSelf:
			if from == to {
				continue // R*(x,x) is true
			}
			// x and y are distinct, so R*(x,y) becomes R+(x,y).
			plus := tree.Descendant
			if a.Axis == tree.FollowingSiblingOrSelf {
				plus = tree.FollowingSibling
			}
			atoms = append(atoms, batom{plus, from, to})
		case tree.Child, tree.Descendant, tree.NextSiblingAxis, tree.FollowingSibling:
			atoms = append(atoms, batom{a.Axis, from, to})
		default:
			// Following was eliminated and reverse axes flipped earlier;
			// anything else is a bug.
			panic(fmt.Sprintf("rewrite: unexpected axis %v in disjunct", a.Axis))
		}
	}
	// Step 3: drop exact duplicates.
	atoms = dedupAtoms(atoms)

	// Main rewriting loop: while some variable z is the target of two atoms
	// R(x,z), S(y,z) with x != y, use Table 1 (relative to the <pre order
	// given by the partition) to either refute the disjunct or re-target
	// R(x,z) to R(x,y).
	for {
		// Unsatisfiable combination: R in {Child, Child+} and S in
		// {NextSibling, NextSibling+} over the same ordered pair.
		for _, a := range atoms {
			for _, b := range atoms {
				if a.from == b.from && a.to == b.to &&
					(a.axis == tree.Child || a.axis == tree.Descendant) &&
					(b.axis == tree.NextSiblingAxis || b.axis == tree.FollowingSibling) {
					return nil, false
				}
			}
		}

		// Find conflicting pairs sharing their target.
		type conflict struct {
			i, j int // atom indexes, with atoms[i].from <pre atoms[j].from
		}
		best := conflict{-1, -1}
		bestZ, bestX := -1, -1
		for i := 0; i < len(atoms); i++ {
			for j := 0; j < len(atoms); j++ {
				if i == j {
					continue
				}
				a, b := atoms[i], atoms[j]
				if a.to != b.to || a.from == b.from {
					continue
				}
				if rankOf(a.from) >= rankOf(b.from) {
					continue // consider each unordered pair once, with a.from <pre b.from
				}
				z := rankOf(a.to)
				x := rankOf(a.from)
				// Choose z maximal, then x minimal (the proof's choice).
				if best.i == -1 || z > bestZ || (z == bestZ && x < bestX) {
					best = conflict{i, j}
					bestZ, bestX = z, x
				}
			}
		}
		if best.i == -1 {
			break // no conflicts: the atom graph is a forest
		}
		r := atoms[best.i]
		s := atoms[best.j]
		if !PairSatisfiable(r.axis, s.axis) {
			return nil, false
		}
		// Replace R(x, z) by R(x, y) where y = s.from; x <pre y by the pair's
		// orientation.
		atoms[best.i] = batom{r.axis, r.from, s.from}
		atoms = dedupAtoms(atoms)
	}

	for _, a := range atoms {
		d.Axes = append(d.Axes, cq.AxisAtom{Axis: a.axis, From: a.from, To: a.to})
	}
	// Safety: a head variable may have lost all its body atoms (e.g. when the
	// partition merged it with the other endpoint of a Child* atom).  Add the
	// universally-true atom Child*(v, v) to keep the disjunct safe without
	// changing its meaning.
	inBody := map[cq.Variable]bool{}
	for _, a := range d.Labels {
		inBody[a.Var] = true
	}
	for _, a := range d.Axes {
		inBody[a.From] = true
		inBody[a.To] = true
	}
	for _, v := range d.Head {
		if !inBody[v] {
			inBody[v] = true
			d.Axes = append(d.Axes, cq.AxisAtom{Axis: tree.DescendantOrSelf, From: v, To: v})
		}
	}
	// Step 5: the <pre atoms of the disjunct are dropped entirely (we never
	// materialized them; the partition played their role during rewriting).
	if !d.IsAcyclic() {
		// The procedure guarantees acyclicity; reaching this point would be a
		// bug, so fail loudly in tests rather than return a wrong disjunct.
		panic(fmt.Sprintf("rewrite: disjunct still cyclic: %v", d))
	}
	return d, true
}

func dedupAtoms[T comparable](atoms []T) []T {
	out := atoms[:0]
	for _, a := range atoms {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	return out
}

// canonicalKey returns a canonical string for duplicate elimination of
// rewritten disjuncts.
func canonicalKey(q *cq.Query) string {
	var parts []string
	for _, a := range q.Labels {
		parts = append(parts, a.String())
	}
	for _, a := range q.Axes {
		parts = append(parts, a.String())
	}
	sort.Strings(parts)
	head := ""
	for _, v := range q.Head {
		head += string(v) + ","
	}
	return head + "|" + strings.Join(parts, ",")
}

// EvaluateViaRewrite rewrites q into a union of acyclic queries and
// evaluates every disjunct (Corollary 5.2), returning the union of the answer
// sets (sorted, de-duplicated) together with the number of disjuncts
// evaluated.
func EvaluateViaRewrite(q *cq.Query, t *tree.Tree) ([]cq.Answer, int, error) {
	u, _, err := Compile(q)
	if err != nil {
		return nil, 0, err
	}
	answers, err := u.EvaluateCtx(context.Background(), t, nil)
	return answers, len(u), err
}

// Union is a rewritten union of acyclic disjuncts (the output of
// ToAcyclicUnion) compiled for the interval-join kernel of package arccons —
// Yannakakis' full reducer and an output-sensitive enumeration on
// preorder-rank bitsets.  Like the disjuncts it is document-independent: the
// prepare/execute pipeline rewrites and compiles once and evaluates the Union
// on every execution.
type Union []*arccons.Compiled

// Compile rewrites q (ToAcyclicUnion) and compiles every disjunct; a
// disjunct the kernel rejects (a cyclic one) would indicate a rewriting bug,
// so the error is propagated.
func Compile(q *cq.Query) (Union, int, error) {
	disjuncts, placements, err := ToAcyclicUnion(q)
	if err != nil {
		return nil, placements, err
	}
	u := make(Union, len(disjuncts))
	for i, d := range disjuncts {
		c, err := arccons.Compile(d)
		if err != nil {
			return nil, placements, fmt.Errorf("rewrite: compiling disjunct %v: %w", d, err)
		}
		u[i] = c
	}
	return u, placements, nil
}

// EvaluateCtx returns the union of the disjuncts' answer sets on t, sorted
// and de-duplicated.  Every disjunct's answers come back sorted and
// duplicate-free, so the union merges them in one pass and drops the tuples
// two disjuncts share: no sort, and one new slice of tuple headers (none
// when at most one disjunct answers).  The context reaches every kernel run,
// so cancellation takes effect within one checkpoint interval of the
// disjunct in progress.  ix may be nil.
func (u Union) EvaluateCtx(ctx context.Context, t *tree.Tree, ix arccons.LabelIndex) ([]cq.Answer, error) {
	var buf [8][]cq.Answer // the lists stay on the stack up to 8 answering disjuncts
	lists, total := buf[:0], 0
	for _, c := range u {
		ans, err := c.EnumerateCtx(ctx, t, ix)
		if err != nil {
			return nil, err
		}
		if len(ans) > 0 {
			lists, total = append(lists, ans), total+len(ans)
		}
	}
	switch len(lists) {
	case 0:
		return nil, nil
	case 1:
		return lists[0], nil
	}
	return mergeAnswers(lists, total), nil
}

// mergeAnswers merges sorted, duplicate-free answer lists (none empty) into
// one sorted, duplicate-free list of at most total tuples.  h is made, in
// place, a binary min-heap on each list's first tuple: the least tuple is
// always on top, so a tuple several lists hold comes off them consecutively
// and only its first copy is kept.
func mergeAnswers(h [][]cq.Answer, total int) []cq.Answer {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]cq.Answer, 0, total)
	for len(h) > 0 {
		if a := h[0][0]; len(out) == 0 || !slices.Equal(out[len(out)-1], a) {
			out = append(out, a)
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0], h = h[len(h)-1], h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the heap order of h below position i.
func siftDown(h [][]cq.Answer, i int) {
	for {
		least := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && slices.Compare(h[c][0], h[least][0]) < 0 {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
