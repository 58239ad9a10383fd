package cq

import (
	"context"
	"slices"

	"repro/internal/tree"
)

// Answer is one result tuple: the value of each head variable in head order.
// For Boolean queries the single answer (if any) is the empty tuple.
type Answer []tree.NodeID

// EvaluateNaive evaluates the query on t by backtracking search over the
// variables: candidate domains are pre-filtered by the unary label atoms,
// variables are ordered so that each (after the first of its connected
// component) is adjacent to an already-assigned variable, and every binary
// atom is checked as soon as both endpoints are assigned.
//
// This is the exponential-worst-case baseline the paper contrasts all
// polynomial techniques against (conjunctive queries over trees are
// NP-complete in general, Theorem 6.8); it is also the reference oracle the
// tests of the polynomial evaluators compare against on small inputs.
// Results are returned sorted and de-duplicated.
func EvaluateNaive(q *Query, t *tree.Tree) []Answer {
	out, _ := EvaluateNaiveCtx(context.Background(), q, t)
	return out
}

// evalCheckpointInterval is the number of candidate assignments tried between
// ctx.Err() checks inside the backtracking recursion.  The worst case of this
// evaluator is exponential, so the checkpoint is what makes per-document
// budgets effective against adversarial queries.
const evalCheckpointInterval = 1024

// EvaluateNaiveCtx is EvaluateNaive under a context: the backtracking search
// aborts within evalCheckpointInterval candidate assignments of ctx expiry
// and returns ctx.Err().
func EvaluateNaiveCtx(ctx context.Context, q *Query, t *tree.Tree) ([]Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vars := q.Variables()
	if len(vars) == 0 {
		// No variables at all: the empty conjunction is true.
		if len(q.Head) == 0 {
			return []Answer{{}}, nil
		}
		return nil, nil
	}

	// Candidate domains from unary atoms.
	domains := make(map[Variable][]tree.NodeID, len(vars))
	for _, v := range vars {
		codes := t.Dict().Codes(q.LabelsOf(v))
		var dom []tree.NodeID
		for n := range tree.NodeID(t.Len()) {
			if t.HasCodes(n, codes) {
				dom = append(dom, n)
			}
		}
		if len(dom) == 0 {
			return nil, nil
		}
		domains[v] = dom
	}

	order := searchOrder(q, vars, domains)

	// Index binary atoms by the position of their later variable in the
	// search order, so each atom is checked exactly once, as early as
	// possible.
	pos := map[Variable]int{}
	for i, v := range order {
		pos[v] = i
	}
	type check struct {
		axis     tree.Axis
		from, to Variable
		isOrder  bool
		ord      tree.Order
	}
	checksAt := make([][]check, len(order))
	for _, a := range q.Axes {
		p := pos[a.From]
		if pos[a.To] > p {
			p = pos[a.To]
		}
		checksAt[p] = append(checksAt[p], check{axis: a.Axis, from: a.From, to: a.To})
	}
	for _, a := range q.Orders {
		p := pos[a.From]
		if pos[a.To] > p {
			p = pos[a.To]
		}
		checksAt[p] = append(checksAt[p], check{isOrder: true, ord: a.Order, from: a.From, to: a.To})
	}

	assign := map[Variable]tree.NodeID{}
	var results []Answer
	seen := map[string]bool{}
	tried := 0
	var ctxErr error

	var rec func(i int) bool // returns true to continue, false to abort (ctx expired)
	rec = func(i int) bool {
		if i == len(order) {
			ans := make(Answer, len(q.Head))
			for j, v := range q.Head {
				ans[j] = assign[v]
			}
			k := answerKey(ans)
			if !seen[k] {
				seen[k] = true
				results = append(results, ans)
			}
			return true
		}
		v := order[i]
		for _, n := range domains[v] {
			tried++
			if tried%evalCheckpointInterval == 0 {
				if err := ctx.Err(); err != nil {
					ctxErr = err
					return false
				}
			}
			assign[v] = n
			ok := true
			for _, c := range checksAt[i] {
				if c.isOrder {
					if !t.Less(c.ord, assign[c.from], assign[c.to]) {
						ok = false
						break
					}
				} else if !t.Holds(c.axis, assign[c.from], assign[c.to]) {
					ok = false
					break
				}
			}
			if ok && !rec(i+1) {
				return false
			}
		}
		delete(assign, v)
		return true
	}
	rec(0)
	if ctxErr != nil {
		return nil, ctxErr
	}
	sortAnswers(results)
	return results, nil
}

// Satisfiable reports whether the Boolean version of the query (ignoring the
// head) has at least one satisfying valuation on t.
func Satisfiable(q *Query, t *tree.Tree) bool {
	b := q.Clone()
	b.Head = nil
	return len(EvaluateNaive(b, t)) > 0
}

// searchOrder orders the variables so that every variable after the first of
// its component shares a binary atom with some earlier variable, preferring
// small domains first.
func searchOrder(q *Query, vars []Variable, domains map[Variable][]tree.NodeID) []Variable {
	adj := map[Variable]map[Variable]bool{}
	link := func(a, b Variable) {
		if adj[a] == nil {
			adj[a] = map[Variable]bool{}
		}
		adj[a][b] = true
	}
	for _, a := range q.Axes {
		link(a.From, a.To)
		link(a.To, a.From)
	}
	for _, a := range q.Orders {
		link(a.From, a.To)
		link(a.To, a.From)
	}

	remaining := map[Variable]bool{}
	for _, v := range vars {
		remaining[v] = true
	}
	var order []Variable
	frontier := map[Variable]bool{}

	pick := func(candidates map[Variable]bool) Variable {
		best := Variable("")
		for v := range candidates {
			if !remaining[v] {
				continue
			}
			if best == "" || len(domains[v]) < len(domains[best]) ||
				(len(domains[v]) == len(domains[best]) && v < best) {
				best = v
			}
		}
		return best
	}

	for len(order) < len(vars) {
		v := pick(frontier)
		if v == "" {
			v = pick(remaining)
		}
		order = append(order, v)
		delete(remaining, v)
		delete(frontier, v)
		for w := range adj[v] {
			if remaining[w] {
				frontier[w] = true
			}
		}
	}
	return order
}

func answerKey(a Answer) string {
	b := make([]byte, 0, len(a)*4)
	for _, n := range a {
		b = append(b, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return string(b)
}

// sortAnswers sorts answers lexicographically.
func sortAnswers(as []Answer) {
	slices.SortFunc(as, func(a, b Answer) int { return slices.Compare(a, b) })
}

// AnswersEqual reports whether two answer sets (assumed de-duplicated)
// contain the same tuples, regardless of order.
func AnswersEqual(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, x := range a {
		set[answerKey(x)] = true
	}
	for _, y := range b {
		if !set[answerKey(y)] {
			return false
		}
	}
	return true
}

// SortAnswers sorts a slice of answers lexicographically in place (exported
// for use by other evaluator packages and the benchmark harness).
func SortAnswers(as []Answer) { sortAnswers(as) }

// SortDedupAnswers sorts answers lexicographically and removes duplicates by
// comparing neighbours, in place; it returns the shortened slice.  Evaluators
// whose projections or unions can repeat a tuple use it in place of a
// string-keyed seen-set.
func SortDedupAnswers(as []Answer) []Answer {
	sortAnswers(as)
	out := as[:0]
	for _, a := range as {
		if len(out) == 0 || !slices.Equal(out[len(out)-1], a) {
			out = append(out, a)
		}
	}
	return out
}
