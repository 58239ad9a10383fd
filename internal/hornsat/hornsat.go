// Package hornsat implements Minoux' linear-time algorithm for propositional
// Horn-SAT (Figure 3 of the paper; Minoux, IPL 1988), which is the engine
// behind both the monadic-datalog evaluation of Theorem 3.2 and the
// arc-consistency computation of Proposition 6.2.
//
// A program is a conjunction of definite Horn clauses
//
//	head <- body_1, ..., body_k     (k >= 0)
//
// over integer-identified propositional predicates.  Solve computes the set
// of predicates that are true in the minimal model, in time linear in the
// total size of the program.  A naive iterate-to-fixpoint solver is provided
// as the ablation baseline (DESIGN.md, ablation 2).
package hornsat

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Pred identifies a propositional predicate (atom).  Callers allocate
// predicate ids with Program.NewPred or manage their own dense numbering via
// NewProgramWithPreds.
type Pred int32

// Clause is a definite Horn clause Head <- Body[0], ..., Body[k-1].
// An empty body makes the clause a fact.
type Clause struct {
	Head Pred
	Body []Pred
}

// String renders the clause in datalog notation, e.g. "3 <- 1, 2." or "7.".
func (c Clause) String() string {
	if len(c.Body) == 0 {
		return fmt.Sprintf("%d.", c.Head)
	}
	parts := make([]string, len(c.Body))
	for i, b := range c.Body {
		parts[i] = fmt.Sprintf("%d", b)
	}
	return fmt.Sprintf("%d <- %s.", c.Head, strings.Join(parts, ", "))
}

// Program is a set of definite Horn clauses over predicates 0..NumPreds()-1.
// The zero value is an empty program ready to use.  A Program must not be
// copied after first use.
//
// Clauses are stored flat in three pointer-free arrays: clause i is
// heads[i] <- bodies[bodyOff[i]:bodyOff[i+1]] (up to len(bodies) for the last
// clause), so a ground program of millions of clauses is three allocations
// the garbage collector never scans.
type Program struct {
	heads    []Pred
	bodyOff  []int32
	bodies   []Pred
	numPreds int
	names    map[Pred]string

	// frozen is the occurrence index SolveCtx propagates over.  It depends
	// only on the clauses, so it is built once (Freeze, or the first solve)
	// and shared by every later solve; AddClause drops it.
	frozen atomic.Pointer[occIndex]
}

// occIndex is the immutable part of Minoux' data structures: "rules[x]", the
// clauses in whose body x occurs, as ruleIdx[occ[x]:occ[x+1]]; the initial
// counter of every clause; and the heads of the facts, in clause order.
type occIndex struct {
	occ, ruleIdx, bodyLen []int32
	facts                 []Pred
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// NewProgramWithPreds returns an empty program that already knows about
// predicates 0..n-1 (useful when the caller numbers atoms itself, as the
// grounding of monadic datalog does).
func NewProgramWithPreds(n int) *Program { return &Program{numPreds: n} }

// Reserve makes room for the given number of further clauses and of body
// literals across them, so that a caller who knows a bound on what it is
// about to add (the grounding of Theorem 3.2 does) pays three allocations
// rather than repeated growth.
func (p *Program) Reserve(clauses, literals int) {
	p.heads = slices.Grow(p.heads, clauses)
	p.bodyOff = slices.Grow(p.bodyOff, clauses)
	p.bodies = slices.Grow(p.bodies, literals)
}

// NumPreds returns the number of predicates known to the program.
func (p *Program) NumPreds() int { return p.numPreds }

// NumClauses returns the number of clauses.
func (p *Program) NumClauses() int { return len(p.heads) }

// Size returns the total number of literal occurrences in the program (the
// measure |P| used in the O(|P|) bound of Minoux' algorithm).
func (p *Program) Size() int { return len(p.heads) + len(p.bodies) }

// body returns the body of clause i, aliasing the program's storage.
func (p *Program) body(i int) []Pred {
	end := len(p.bodies)
	if i+1 < len(p.bodyOff) {
		end = int(p.bodyOff[i+1])
	}
	return p.bodies[p.bodyOff[i]:end:end]
}

// Clauses returns the clauses of the program, in the order they were added.
// The bodies alias the program's storage and must not be modified.
func (p *Program) Clauses() []Clause {
	out := make([]Clause, len(p.heads))
	for i, h := range p.heads {
		out[i] = Clause{Head: h, Body: p.body(i)}
	}
	return out
}

// NewPred allocates a fresh predicate id, optionally with a readable name
// used by String.
func (p *Program) NewPred(name string) Pred {
	id := Pred(p.numPreds)
	p.numPreds++
	if name != "" {
		if p.names == nil {
			p.names = map[Pred]string{}
		}
		p.names[id] = name
	}
	return id
}

// PredName returns the name registered for the predicate, or its number.
func (p *Program) PredName(x Pred) string {
	if n, ok := p.names[x]; ok {
		return n
	}
	return fmt.Sprintf("p%d", int(x))
}

// AddFact adds the clause "head <- ." asserting head unconditionally.
func (p *Program) AddFact(head Pred) { p.AddClause(head) }

// AddClause adds the clause head <- body...; it grows the predicate universe
// as needed so that callers may use arbitrary non-negative ids.  It must not
// run concurrently with a solve; solves that start afterwards see the clause.
func (p *Program) AddClause(head Pred, body ...Pred) {
	p.track(head)
	for _, b := range body {
		p.track(b)
	}
	p.heads = append(p.heads, head)
	p.bodyOff = append(p.bodyOff, int32(len(p.bodies)))
	p.bodies = append(p.bodies, body...)
	if p.frozen.Load() != nil {
		p.frozen.Store(nil)
	}
}

// Freeze builds the occurrence index now instead of on the first solve, so
// that a program built once and solved many times (a grounded datalog plan)
// pays for it where it pays for the grounding.
func (p *Program) Freeze() { p.index() }

// index returns the occurrence index, building and publishing it in one
// counting-sort pass over the bodies if the program has none.  Concurrent
// first solves may each build one; they are identical, and whichever is
// stored last serves the later solves.
func (p *Program) index() *occIndex {
	if ix := p.frozen.Load(); ix != nil {
		return ix
	}
	n := p.numPreds
	ix := &occIndex{
		occ:     make([]int32, n+1),
		ruleIdx: make([]int32, len(p.bodies)),
		bodyLen: make([]int32, len(p.heads)),
	}
	occ := ix.occ
	for _, b := range p.bodies {
		occ[b+1]++
	}
	for i := 0; i < n; i++ {
		occ[i+1] += occ[i]
	}
	for ci, h := range p.heads {
		body := p.body(ci)
		ix.bodyLen[ci] = int32(len(body))
		if len(body) == 0 {
			ix.facts = append(ix.facts, h)
		}
		for _, b := range body {
			ix.ruleIdx[occ[b]] = int32(ci)
			occ[b]++
		}
	}
	// Filling advanced every occ[x] to the start of x+1's range.
	copy(occ[1:], occ[:n])
	occ[0] = 0
	p.frozen.Store(ix)
	return ix
}

func (p *Program) track(x Pred) {
	if x < 0 {
		panic(fmt.Sprintf("hornsat: negative predicate id %d", x))
	}
	if int(x) >= p.numPreds {
		p.numPreds = int(x) + 1
	}
}

// String renders the whole program, one clause per line, using registered
// predicate names where available.
func (p *Program) String() string {
	var sb strings.Builder
	for _, c := range p.Clauses() {
		sb.WriteString(p.PredName(c.Head))
		if len(c.Body) > 0 {
			sb.WriteString(" <- ")
			parts := make([]string, len(c.Body))
			for i, b := range c.Body {
				parts[i] = p.PredName(b)
			}
			sb.WriteString(strings.Join(parts, ", "))
		}
		sb.WriteString(".\n")
	}
	return sb.String()
}

// Model is the result of solving a program: the minimal model as a bit set
// over predicates plus the order in which atoms were derived.
type Model struct {
	true_   []bool
	Derived []Pred // derivation order (the "output" sequence of Figure 3)
}

// True reports whether predicate x holds in the minimal model.
func (m *Model) True(x Pred) bool {
	return int(x) < len(m.true_) && m.true_[int(x)]
}

// TrueSet returns all true predicates in ascending id order.
func (m *Model) TrueSet() []Pred {
	out := make([]Pred, 0, len(m.Derived))
	for i, v := range m.true_ {
		if v {
			out = append(out, Pred(i))
		}
	}
	return out
}

// Count returns the number of true predicates.
func (m *Model) Count() int {
	k := 0
	for _, v := range m.true_ {
		if v {
			k++
		}
	}
	return k
}

// CheckpointInterval is the number of unit propagations (queue pops) between
// consecutive ctx.Err() checks inside SolveCtx's main loop.  A cancelled
// context therefore aborts the solve within at most this many propagations
// of the deadline — sharp enough for per-document budgets while keeping the
// check off the per-literal fast path.
const CheckpointInterval = 1024

// Solve computes the minimal model of the program with Minoux' algorithm
// (Figure 3 of the paper): every clause keeps a counter of unsatisfied body
// atoms; an index "rules[p]" lists the clauses in whose body p occurs; a
// queue holds atoms derived but not yet propagated.  Runtime and memory are
// O(Size()).
func (p *Program) Solve() *Model {
	m, _ := p.SolveCtx(context.Background())
	return m
}

// SolveCtx is Solve under a context: the unit-propagation loop checks
// ctx.Err() every CheckpointInterval queue pops (and once before starting),
// returning (nil, ctx.Err()) on cancellation.  The background context makes
// the checks branch-predictable no-ops, so Solve pays nothing for them.
// Any number of solves of one program may run concurrently.
func (p *Program) SolveCtx(ctx context.Context) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix := p.index()
	m := &Model{true_: make([]bool, p.numPreds)}
	size, occ, ruleIdx := slices.Clone(ix.bodyLen), ix.occ, ix.ruleIdx
	// Every atom enters the queue at most once: one allocation holds it.
	queue := make([]Pred, 0, p.numPreds)
	for _, h := range ix.facts {
		if !m.true_[h] {
			m.true_[h] = true
			queue = append(queue, h)
		}
	}

	for qi := 0; qi < len(queue); qi++ {
		if qi%CheckpointInterval == CheckpointInterval-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		x := queue[qi]
		for k := occ[x]; k < occ[x+1]; k++ {
			ci := ruleIdx[k]
			size[ci]--
			if size[ci] == 0 {
				h := p.heads[ci]
				if !m.true_[h] {
					m.true_[h] = true
					queue = append(queue, h)
				}
			}
		}
	}
	// The queue is the derivation order: every atom enters it once, when it
	// is derived, and is popped in that order.
	m.Derived = queue
	return m, nil
}

// SolveNaive computes the same minimal model by repeatedly sweeping all
// clauses until a fixpoint is reached.  Worst case O(NumClauses * Size); it
// exists only as the ablation baseline for the benchmarks.
func (p *Program) SolveNaive() *Model {
	m := &Model{true_: make([]bool, p.numPreds)}
	clauses := p.Clauses()
	changed := true
	for changed {
		changed = false
		for _, c := range clauses {
			if m.true_[c.Head] {
				continue
			}
			ok := true
			for _, b := range c.Body {
				if !m.true_[b] {
					ok = false
					break
				}
			}
			if ok {
				m.true_[c.Head] = true
				m.Derived = append(m.Derived, c.Head)
				changed = true
			}
		}
	}
	return m
}

// SatisfiableWithGoals reports whether the Horn formula consisting of the
// program's definite clauses plus the negative clauses "<- g_1,...,g_k" given
// by goals is satisfiable: it is unsatisfiable iff some goal clause has all
// its atoms in the minimal model.  This is full Horn-SAT (not just definite
// programs) and is what "solving propositional Horn-SAT" in Section 3 means.
func (p *Program) SatisfiableWithGoals(goals [][]Pred) bool {
	m := p.Solve()
	for _, g := range goals {
		all := true
		for _, x := range g {
			if !m.True(x) {
				all = false
				break
			}
		}
		if all {
			return false
		}
	}
	return true
}

// TraceState captures the data structures of Minoux' algorithm right after
// the initialization phase; it reproduces the worked trace of Example 3.3.
type TraceState struct {
	Size  []int   // size[i] = number of body atoms of clause i not yet derived
	Head  []Pred  // head[i]
	Rules [][]int // rules[p] = clauses containing p in their body
	Queue []Pred  // initial queue: heads of facts
}

// InitTrace returns the state of the algorithm's data structures after
// initialization (before the main loop), for didactic reproduction of
// Example 3.3 / Figure 3.
func (p *Program) InitTrace() *TraceState {
	clauses := p.Clauses()
	ts := &TraceState{
		Size:  make([]int, len(clauses)),
		Head:  make([]Pred, len(clauses)),
		Rules: make([][]int, p.numPreds),
	}
	for ci, c := range clauses {
		ts.Size[ci] = len(c.Body)
		ts.Head[ci] = c.Head
		for _, b := range c.Body {
			ts.Rules[b] = append(ts.Rules[b], ci)
		}
		if len(c.Body) == 0 {
			ts.Queue = append(ts.Queue, c.Head)
		}
	}
	for _, rs := range ts.Rules {
		sort.Ints(rs)
	}
	return ts
}
