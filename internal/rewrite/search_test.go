package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
)

// orderedPartitions enumerates all ordered set partitions of vars: every way
// to group the variables into equality classes and totally order the classes
// by <pre.  The count is the ordered Bell number of len(vars).
func orderedPartitions(vars []cq.Variable) [][][]cq.Variable {
	var out [][][]cq.Variable
	var rec func(i int, blocks [][]cq.Variable)
	rec = func(i int, blocks [][]cq.Variable) {
		if i == len(vars) {
			cp := make([][]cq.Variable, len(blocks))
			for j, b := range blocks {
				cp[j] = append([]cq.Variable{}, b...)
			}
			out = append(out, cp)
			return
		}
		v := vars[i]
		// Join an existing block.
		for j := range blocks {
			blocks[j] = append(blocks[j], v)
			rec(i+1, blocks)
			blocks[j] = blocks[j][:len(blocks[j])-1]
		}
		// Or open a new block at any position.
		for pos := 0; pos <= len(blocks); pos++ {
			nb := make([][]cq.Variable, 0, len(blocks)+1)
			nb = append(nb, blocks[:pos]...)
			nb = append(nb, []cq.Variable{v})
			nb = append(nb, blocks[pos:]...)
			rec(i+1, nb)
		}
	}
	rec(0, nil)
	return out
}

// respectsOrders reports whether a complete partition satisfies the <pre
// order every axis atom of q implies, checked after the fact on the whole
// partition.
func respectsOrders(q *cq.Query, partition [][]cq.Variable) bool {
	rank := map[cq.Variable]int{}
	for i, block := range partition {
		for _, v := range block {
			rank[v] = i
		}
	}
	for _, a := range q.Axes {
		from, to := rank[a.From], rank[a.To]
		switch a.Axis {
		case tree.Self:
			if from != to {
				return false
			}
		case tree.DescendantOrSelf, tree.FollowingSiblingOrSelf:
			if from > to {
				return false
			}
		default:
			if from >= to {
				return false
			}
		}
	}
	return true
}

// enumeratedKeys is the reference split: every ordered partition enumerated
// up front, the order-inconsistent ones filtered out, the rest rewritten and
// de-duplicated.  It returns the disjuncts' canonical keys in order.
func enumeratedKeys(q *cq.Query) []string {
	work := eliminateFollowing(MakeForward(q))
	var keys []string
	seen := map[string]bool{}
	for _, partition := range orderedPartitions(work.Variables()) {
		if !respectsOrders(work, partition) {
			continue
		}
		d, ok := rewriteDisjunct(work, partition)
		if !ok {
			continue
		}
		if key := canonicalKey(d); !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

// starQuery is experiment E8's query: k Child+ atoms from labeled sources
// into one common target z.
func starQuery(k int) *cq.Query {
	labels := []string{"a", "b", "c", "d"}
	q := &cq.Query{Head: []cq.Variable{"z"}}
	q.Labels = append(q.Labels, cq.LabelAtom{Var: "z", Label: "e"})
	for i := 0; i < k; i++ {
		v := cq.Variable(fmt.Sprintf("x%d", i))
		q.Labels = append(q.Labels, cq.LabelAtom{Var: v, Label: labels[i%4]})
		q.Axes = append(q.Axes, cq.AxisAtom{Axis: tree.Descendant, From: v, To: "z"})
	}
	return q
}

// TestPrunedSearchMatchesEnumeration holds the pruned order split to the
// enumerate-then-filter reference: the same disjuncts, key for key and in
// the same order, for 200 generated cyclic queries over every axis (reverse
// and Following included) with at most 7 variables after Following
// elimination, join_mix's cyclic CQ and the E8 star queries.
func TestPrunedSearchMatchesEnumeration(t *testing.T) {
	var axes []tree.Axis
	for a := tree.Self; a <= tree.Preceding; a++ {
		axes = append(axes, a)
	}
	var queries []*cq.Query
	for seed := int64(0); len(queries) < 200; seed++ {
		q := cq.RandomTwig(cq.GenSpec{
			Vars: 3 + int(seed%3), Alphabet: []string{"a", "b"}, LabelProb: 0.5,
			Axes: axes, ExtraEdges: 1 + int(seed%3), Seed: seed, HeadVars: 1,
		})
		if q.IsAcyclic() || len(eliminateFollowing(MakeForward(q)).Variables()) > 7 {
			continue
		}
		queries = append(queries, q)
	}
	queries = append(queries, cq.MustParse("Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t)."))
	for k := 2; k <= 4; k++ {
		queries = append(queries, starQuery(k))
	}
	for _, q := range queries {
		want := enumeratedKeys(q)
		ds, _, err := ToAcyclicUnion(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(ds) != len(want) {
			t.Errorf("%s: %d disjuncts, reference has %d", q, len(ds), len(want))
			continue
		}
		for i, d := range ds {
			if key := canonicalKey(d); key != want[i] {
				t.Errorf("%s: disjunct %d is %s, reference has %s", q, i, key, want[i])
				break
			}
		}
	}
}
