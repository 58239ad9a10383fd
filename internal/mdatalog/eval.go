package mdatalog

import (
	"fmt"
	"sort"

	"repro/internal/hornsat"
	"repro/internal/tree"
)

// GroundProgram is the result of grounding a TMNF program over a tree: a
// propositional Horn program plus the mapping from (intensional predicate,
// node) pairs to propositional atoms.
type GroundProgram struct {
	Horn  *hornsat.Program
	preds []string       // intensional predicates, grounding order
	index map[string]int // predicate -> position in preds
	n     int            // number of tree nodes
}

// AtomID returns the propositional atom for pred(node).
func (g *GroundProgram) AtomID(pred string, node tree.NodeID) (hornsat.Pred, bool) {
	i, ok := g.index[pred]
	if !ok {
		return 0, false
	}
	return hornsat.Pred(i*g.n + int(node)), true
}

// unaryRef is a unary body predicate resolved once for a whole rule: an
// intensional predicate, whose atom at node v is base+v, or (holds != nil) an
// extensional one, tested on the tree while grounding.
type unaryRef struct {
	base  hornsat.Pred
	holds func(tree.NodeID) bool
}

func (g *GroundProgram) resolveUnary(t *tree.Tree, pred string) unaryRef {
	if i, ok := g.index[pred]; ok {
		return unaryRef{base: hornsat.Pred(i * g.n)}
	}
	if l, ok := labelPred(pred); ok {
		c := t.Dict().Code(l)
		return unaryRef{holds: func(n tree.NodeID) bool { return t.HasCode(n, c) }}
	}
	switch pred {
	case PredRoot:
		return unaryRef{holds: t.IsRoot}
	case PredLeaf:
		return unaryRef{holds: t.IsLeaf}
	case PredFirstSibling:
		return unaryRef{holds: t.IsFirstSibling}
	case PredLastSibling:
		return unaryRef{holds: t.IsLastSibling}
	}
	return unaryRef{holds: func(tree.NodeID) bool { return false }}
}

// Ground grounds the program (which must be in TMNF; call ToTMNF first) over
// the tree.  The grounding has O(|P| * |Dom|) clauses and literals
// (Theorem 3.2): every TMNF rule contributes at most one clause per node
// (forms 1 and 3) or one clause per edge of a tau+ relation (form 2), and
// the tau+ relations have O(|Dom|) edges in total.  The returned program is
// frozen: solving it does no further setup.
func (p *Program) Ground(t *tree.Tree) (*GroundProgram, error) {
	if !p.IsTMNF() {
		return nil, fmt.Errorf("mdatalog: Ground requires a TMNF program; call ToTMNF first")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &GroundProgram{preds: p.IntensionalPredicates(), index: map[string]int{}, n: t.Len()}
	for i, pr := range g.preds {
		g.index[pr] = i
	}
	g.Horn = hornsat.NewProgramWithPreds(len(g.preds) * g.n)

	// Every TMNF rule is p(v) :- p0(u)[, p1(u)] over the pairs (u, v) of its
	// binary atom (form 2), or over u = v for every node (forms 1 and 3):
	// resolve the predicates once per rule, then emit one clause per pair.
	type groundRule struct {
		head   hornsat.Pred
		body   []unaryRef
		binary string // "" when the rule has no binary atom
	}
	rules := make([]groundRule, len(p.Rules))
	literals := 0
	for i, r := range p.Rules {
		gr := groundRule{head: hornsat.Pred(g.index[r.Head.Pred] * g.n)}
		for _, a := range r.Body {
			if len(a.Args) == 2 {
				gr.binary = a.Pred
				continue
			}
			ref := g.resolveUnary(t, a.Pred)
			if ref.holds == nil {
				literals += g.n
			}
			gr.body = append(gr.body, ref)
		}
		rules[i] = gr
	}
	g.Horn.Reserve(len(rules)*g.n, literals)

	for _, r := range rules {
		emit := func(u, v tree.NodeID) {
			var body [2]hornsat.Pred
			k := 0
			for _, a := range r.body {
				if a.holds == nil {
					body[k] = a.base + hornsat.Pred(u)
					k++
				} else if !a.holds(u) {
					return
				}
			}
			g.Horn.AddClause(r.head+hornsat.Pred(v), body[:k]...)
		}
		if r.binary != "" {
			binaryPairsFunc(t, r.binary, emit)
			continue
		}
		for v := range tree.NodeID(t.Len()) {
			emit(v, v)
		}
	}
	g.Horn.Freeze()
	return g, nil
}

// Result is the outcome of evaluating a program on a tree: for every
// intensional predicate the set of nodes it holds of.
type Result struct {
	byPred map[string][]tree.NodeID
}

// Nodes returns the nodes satisfying the given predicate, in ascending
// NodeID (document) order.
func (r *Result) Nodes(pred string) []tree.NodeID { return r.byPred[pred] }

// Evaluate evaluates the program over the tree: it converts to TMNF, grounds,
// solves the ground Horn program with Minoux' algorithm, and returns the
// query predicate's node set together with the full per-predicate result.
// Total time is O(|P| * |Dom|) (Theorem 3.2).
func Evaluate(p *Program, t *tree.Tree) ([]tree.NodeID, *Result, error) {
	tm, err := p.ToTMNF()
	if err != nil {
		return nil, nil, err
	}
	g, err := tm.Ground(t)
	if err != nil {
		return nil, nil, err
	}
	model := g.Horn.Solve()
	res := &Result{byPred: map[string][]tree.NodeID{}}
	for _, pred := range tm.IntensionalPredicates() {
		res.byPred[pred] = g.NodesOf(pred, model)
	}
	return res.Nodes(p.Query), res, nil
}

// NodesOf decodes a solved model back to the nodes satisfying pred, in
// ascending NodeID (document) order: the atoms of one predicate are numbered
// by NodeID, so a scan over them is already sorted.
func (g *GroundProgram) NodesOf(pred string, model *hornsat.Model) []tree.NodeID {
	i, ok := g.index[pred]
	if !ok {
		return nil
	}
	base := hornsat.Pred(i * g.n)
	var nodes []tree.NodeID
	for v := 0; v < g.n; v++ {
		if model.True(base + hornsat.Pred(v)) {
			nodes = append(nodes, tree.NodeID(v))
		}
	}
	return nodes
}

// EvaluateNaive evaluates the program without the TMNF/Horn-SAT machinery:
// a straightforward semi-naive fixpoint over per-predicate node sets, used
// as the reference oracle and the ablation baseline for experiment E4.
func EvaluateNaive(p *Program, t *tree.Tree) ([]tree.NodeID, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	truth := map[string]map[tree.NodeID]bool{}
	for _, pred := range p.IntensionalPredicates() {
		truth[pred] = map[tree.NodeID]bool{}
	}
	holds := func(pred string, n tree.NodeID) bool {
		if m, ok := truth[pred]; ok {
			return m[n]
		}
		return holdsUnary(t, pred, n)
	}
	// Iterate until fixpoint: for each rule, enumerate satisfying assignments
	// of its body by backtracking over the body atoms.
	changed := true
	for changed {
		changed = false
		for _, r := range p.Rules {
			assignments := enumerateBody(t, r.Body, holds)
			for _, asg := range assignments {
				hv, ok := asg[r.Head.Args[0]]
				if !ok {
					// Fact or head variable unrestricted: holds of every node.
					for _, n := range t.Nodes() {
						if !truth[r.Head.Pred][n] {
							truth[r.Head.Pred][n] = true
							changed = true
						}
					}
					continue
				}
				if !truth[r.Head.Pred][hv] {
					truth[r.Head.Pred][hv] = true
					changed = true
				}
			}
		}
	}
	var out []tree.NodeID
	for _, n := range t.Nodes() {
		if truth[p.Query][n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// enumerateBody returns all assignments of the body variables satisfying the
// body atoms (backtracking; exponential in the worst case -- baseline only).
func enumerateBody(t *tree.Tree, body []Atom, holds func(string, tree.NodeID) bool) []map[Variable]tree.NodeID {
	if len(body) == 0 {
		return []map[Variable]tree.NodeID{{}}
	}
	// Collect variables.
	varSet := map[Variable]bool{}
	for _, a := range body {
		for _, v := range a.Args {
			varSet[v] = true
		}
	}
	var vars []Variable
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })

	var results []map[Variable]tree.NodeID
	assign := map[Variable]tree.NodeID{}
	check := func() bool {
		for _, a := range body {
			if len(a.Args) == 1 {
				n, ok := assign[a.Args[0]]
				if ok && !holds(a.Pred, n) {
					return false
				}
				continue
			}
			u, ok1 := assign[a.Args[0]]
			v, ok2 := assign[a.Args[1]]
			if !ok1 || !ok2 {
				continue
			}
			if !binaryHolds(t, a.Pred, u, v) {
				return false
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(vars) {
			cp := map[Variable]tree.NodeID{}
			for k, v := range assign {
				cp[k] = v
			}
			results = append(results, cp)
			return
		}
		for _, n := range t.Nodes() {
			assign[vars[i]] = n
			if check() {
				rec(i + 1)
			}
		}
		delete(assign, vars[i])
	}
	rec(0)
	return results
}

// binaryHolds evaluates an extensional binary predicate on a node pair.
func binaryHolds(t *tree.Tree, pred string, u, v tree.NodeID) bool {
	base, inverse, ok := binaryBase(pred)
	if !ok {
		return false
	}
	if inverse {
		u, v = v, u
	}
	switch base {
	case PredFirstChild:
		return t.FirstChild(u) == v
	case PredNextSibling:
		return t.NextSibling(u) == v
	case PredChild:
		return t.Parent(v) == u
	}
	return false
}
