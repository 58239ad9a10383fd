package mdatalog

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/hornsat"
	"repro/internal/tree"
)

// hop is where a rule derives its head relative to the node u its body holds
// at: at u itself (TMNF forms 1 and 3) or across one tau+ edge (form 2).
type hop uint8

// The three inverse hops follow the three forward ones in the same order
// (hopOf relies on it).
const (
	hopSelf         hop = iota
	hopFirstChild       // FirstChild(u, v)
	hopNextSibling      // NextSibling(u, v)
	hopChild            // Child(u, v): every node of u's sibling chain of children
	hopFirstChildOf     // FirstChild(v, u): u's parent, when u is a first child
	hopPrevSibling      // NextSibling(v, u)
	hopParent           // Child(v, u)
)

// hopOf returns the hop of a binary tau+ predicate B(u, v), in any spelling.
func hopOf(pred string) hop {
	base, inverse, _ := binaryBase(pred)
	h := hopChild
	switch base {
	case PredFirstChild:
		h = hopFirstChild
	case PredNextSibling:
		h = hopNextSibling
	}
	if inverse {
		h += hopFirstChildOf - hopFirstChild
	}
	return h
}

// extKind is one of the five unary tau+ predicates.
type extKind uint8

const (
	extLabel extKind = iota
	extRoot
	extLeaf
	extFirstSibling
	extLastSibling
)

// extLit is an extensional unary literal; label is set for extLabel only.
type extLit struct {
	kind  extKind
	label string
}

// lit is a unary body literal: an intensional predicate's index when >= 0,
// otherwise the complement of an index into Compiled.exts.
type lit int32

// crule is a TMNF rule over predicate indices: head holds at hop(u) when the
// n body literals hold at u.  Body literals are distinct and in ascending
// order, so equal rules compare equal.
type crule struct {
	head int32
	body [2]lit
	n    uint8
	hop  hop
}

func (r *crule) has(l lit) bool {
	return r.body[0] == l || r.n == 2 && r.body[1] == l
}

// isCopy reports whether r is a copy rule A(x) :- B(x) with B intensional.
func (r *crule) isCopy() bool {
	return r.hop == hopSelf && r.n == 1 && r.body[0] >= 0
}

// normalize orders the body literals and folds a repeated one.
func (r *crule) normalize() {
	if r.n == 2 && r.body[0] > r.body[1] {
		r.body[0], r.body[1] = r.body[1], r.body[0]
	}
	if r.n == 2 && r.body[0] == r.body[1] {
		r.n, r.body[1] = 1, 0
	}
}

// Compiled is a TMNF program resolved for evaluation on any tree: what
// Ground would instantiate once per node or edge is kept once per rule, and
// SolveCtx enumerates the instances a derived atom fires from the tree's own
// links.  It holds no document state and is safe for concurrent solves.
type Compiled struct {
	preds   []string // surviving intensional predicates, by index
	query   int32
	exts    []extLit
	rules   []crule
	occ     [][]int32 // per predicate, the rules it is a body literal of
	seeds   []int32   // the rules with no intensional body literal
	derived atomic.Int64
}

// NumRules returns the number of rules left after copy elimination.
func (c *Compiled) NumRules() int { return len(c.rules) }

// NumPredicates returns the number of intensional predicates left after copy
// elimination; a solve keeps one bit per predicate and node.
func (c *Compiled) NumPredicates() int { return len(c.preds) }

// Derived returns the number of atoms derived over all solves so far: a
// deterministic measure of work for scaling tests, like arccons' Visits.
func (c *Compiled) Derived() int64 { return c.derived.Load() }

// Compile resolves the program (which must be in TMNF; call ToTMNF first) for
// SolveCtx.  Predicates become indices, every rule its head, at most two
// unary literals and a hop, and copy rules are eliminated: a predicate
// defined only by A(x) :- B(x) is B under another name, and a non-query
// predicate B read only by one copy rule A(x) :- B(x) need not exist — its
// rules can derive A directly.  ToTMNF introduces such predicates for every
// rule it decomposes, and each one costs a bit vector and a derivation per
// node it holds of.
func (p *Program) Compile() (*Compiled, error) {
	if !p.IsTMNF() {
		return nil, fmt.Errorf("mdatalog: Compile requires a TMNF program; call ToTMNF first")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	names := p.IntensionalPredicates()
	id := make(map[string]int32, len(names))
	for i, name := range names {
		id[name] = int32(i)
	}
	c := &Compiled{}
	extID := map[extLit]lit{}
	resolve := func(pred string) lit {
		if i, ok := id[pred]; ok {
			return lit(i)
		}
		e := extLit{kind: extLabel}
		switch pred {
		case PredRoot:
			e.kind = extRoot
		case PredLeaf:
			e.kind = extLeaf
		case PredFirstSibling:
			e.kind = extFirstSibling
		case PredLastSibling:
			e.kind = extLastSibling
		default:
			e.label, _ = labelPred(pred)
		}
		l, ok := extID[e]
		if !ok {
			l = ^lit(len(c.exts))
			extID[e] = l
			c.exts = append(c.exts, e)
		}
		return l
	}
	rules := make([]crule, len(p.Rules))
	for i, r := range p.Rules {
		cr := crule{head: id[r.Head.Pred]}
		for _, a := range r.Body {
			if len(a.Args) == 2 {
				cr.hop = hopOf(a.Pred)
				continue
			}
			cr.body[cr.n] = resolve(a.Pred)
			cr.n++
		}
		cr.normalize()
		rules[i] = cr
	}

	// gone marks the predicates elimination removed.
	gone := make([]bool, len(names))
	query := id[p.Query]
	for changed := true; changed; {
		rules = tidy(rules)
		changed = false
		defs := make([]int, len(names))  // rules per head
		reads := make([]int, len(names)) // body occurrences per predicate
		for _, r := range rules {
			defs[r.head]++
			for _, l := range r.body[:r.n] {
				if l >= 0 {
					reads[l]++
				}
			}
		}
		for i, r := range rules {
			if !r.isCopy() {
				continue
			}
			a, b := r.head, int32(r.body[0])
			switch {
			case defs[a] == 1:
				for j := range rules {
					rules[j].rename(lit(a), lit(b))
				}
				if query == a {
					query = b
				}
				gone[a] = true
			case reads[b] == 1 && b != query:
				for j := range rules {
					if rules[j].head == b {
						rules[j].head = a
					}
				}
				gone[b] = true
			default:
				continue
			}
			rules = append(rules[:i], rules[i+1:]...)
			changed = true
			break
		}
	}

	// Number what is left densely.  A predicate no rule defines any more
	// (A :- A alone, or mutual copies) stays as one that is never derived.
	dense := make([]int32, len(names))
	for i, name := range names {
		if !gone[i] {
			dense[i] = int32(len(c.preds))
			c.preds = append(c.preds, name)
		}
	}
	c.query = dense[query]
	c.rules = rules
	c.occ = make([][]int32, len(c.preds))
	for i := range rules {
		r := &rules[i]
		r.head = dense[r.head]
		seed := true
		for k, l := range r.body[:r.n] {
			if l >= 0 {
				r.body[k] = lit(dense[l])
				c.occ[r.body[k]] = append(c.occ[r.body[k]], int32(i))
				seed = false
			}
		}
		if seed {
			c.seeds = append(c.seeds, int32(i))
		}
	}
	return c, nil
}

// rename replaces the body literal from by to.
func (r *crule) rename(from, to lit) {
	for k := range r.body[:r.n] {
		if r.body[k] == from {
			r.body[k] = to
		}
	}
	r.normalize()
}

// tidy drops the rules that derive nothing new — a head that is one of its
// own body literals at the same node — and repeated rules, in place.
func tidy(rules []crule) []crule {
	seen := make(map[crule]bool, len(rules))
	out := rules[:0]
	for _, r := range rules {
		if r.hop == hopSelf && r.has(lit(r.head)) || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

// LabelMasks supplies shared per-label node masks (bit n set iff node n
// carries the label), read-only to the solver; package index provides one.
type LabelMasks interface {
	// CodeMask returns the mask of the label of code c, a code of the tree's
	// dictionary.
	CodeMask(c tree.Code) bitset.Bits
}

type atom struct {
	pred int32
	node tree.NodeID
}

// solver is the pooled state of one solve: words holds one NodeID-indexed
// bit vector per intensional predicate, followed by room for one per
// extensional literal, used by those whose mask the solve has to build
// itself; ext is the mask of every extensional literal; queue the atoms
// derived but not yet propagated.
type solver struct {
	c       *Compiled
	t       *tree.Tree
	stride  int // words per vector
	words   []uint64
	ext     []bitset.Bits
	queue   []atom
	derived int
}

var solverPool = sync.Pool{New: func() any { return &solver{} }}

// newSolver takes a solver from the pool and binds it to c on t.  Label
// masks come from masks when there is one; every other extensional mask is
// scanned off the tree into the scratch.  The caller must release it.
func (c *Compiled) newSolver(t *tree.Tree, masks LabelMasks) *solver {
	n := t.Len()
	s := solverPool.Get().(*solver)
	s.c, s.t, s.stride, s.derived = c, t, bitset.WordsFor(n), 0
	s.queue = s.queue[:0]
	if need := (len(c.preds) + len(c.exts)) * s.stride; cap(s.words) < need {
		s.words = make([]uint64, need)
	} else {
		s.words = s.words[:need]
		clear(s.words)
	}
	s.ext = slices.Grow(s.ext[:0], len(c.exts))[:len(c.exts)]
	for i, e := range c.exts {
		// Each label is resolved to its code once; a label the tree lacks
		// holds nowhere, and its scratch vector stays empty.
		code := t.Dict().Code(e.label)
		if e.kind == extLabel && masks != nil && code != tree.NoCode {
			s.ext[i] = masks.CodeMask(code)
			continue
		}
		m := s.vector(int32(len(c.preds) + i))
		if e.kind == extLabel && code == tree.NoCode {
			s.ext[i] = m
			continue
		}
		for v := tree.NodeID(0); int(v) < n; v++ {
			if holdsExt(t, e, code, v) {
				m.Set(int(v))
			}
		}
		s.ext[i] = m
	}
	return s
}

// holdsExt reports whether e holds at v; code is the tree's code of e's
// label.
func holdsExt(t *tree.Tree, e extLit, code tree.Code, v tree.NodeID) bool {
	switch e.kind {
	case extRoot:
		return t.IsRoot(v)
	case extLeaf:
		return t.IsLeaf(v)
	case extFirstSibling:
		return t.IsFirstSibling(v)
	case extLastSibling:
		return t.IsLastSibling(v)
	}
	return t.HasCode(v, code)
}

// release books the work done, drops what the solve borrowed and returns the
// scratch to the pool.
func (s *solver) release() {
	s.c.derived.Add(int64(s.derived))
	clear(s.ext)
	s.c, s.t = nil, nil
	solverPool.Put(s)
}

func (s *solver) vector(i int32) bitset.Bits {
	return s.words[int(i)*s.stride:][:s.stride]
}

func (s *solver) holds(l lit, u tree.NodeID) bool {
	if l >= 0 {
		return s.vector(int32(l)).Get(int(u))
	}
	return s.ext[^l].Get(int(u))
}

// derive marks pred(v) true and queues it, unless it is already.
func (s *solver) derive(pred int32, v tree.NodeID) {
	if m := s.vector(pred); !m.Get(int(v)) {
		m.Set(int(v))
		s.queue = append(s.queue, atom{pred, v})
		s.derived++
	}
}

// fire derives r's head from the node u its body holds at.
func (s *solver) fire(r *crule, u tree.NodeID) {
	t, v := s.t, u
	switch r.hop {
	case hopFirstChild:
		v = t.FirstChild(u)
	case hopNextSibling:
		v = t.NextSibling(u)
	case hopChild:
		for v = t.FirstChild(u); v != tree.InvalidNode; v = t.NextSibling(v) {
			s.derive(r.head, v)
		}
	case hopFirstChildOf:
		if v = t.Parent(u); !t.IsFirstSibling(u) {
			v = tree.InvalidNode
		}
	case hopPrevSibling:
		v = t.PrevSibling(u)
	case hopParent:
		v = t.Parent(u)
	}
	if v != tree.InvalidNode {
		s.derive(r.head, v)
	}
}

// SolveCtx evaluates the compiled program on t and returns the nodes the
// query predicate holds of, in ascending NodeID order.  It is Minoux' unit
// propagation on the ground program without the ground program: the rules
// with extensional bodies seed the queue from their masks, and popping p(u)
// fires the rules p occurs in whose other literal holds at u, across the
// rule's hop.  Every atom is derived once and popped once, and a pop costs
// the rules of its predicate plus, for Child, the children of u — Theorem
// 3.2's O(|P| * |Dom|) with one bit per predicate and node as the only
// per-document state.  masks may be nil (labels are then scanned off the
// tree).  ctx is checked on entry and every hornsat.CheckpointInterval pops.
func (c *Compiled) SolveCtx(ctx context.Context, t *tree.Tree, masks LabelMasks) ([]tree.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.newSolver(t, masks)
	defer s.release()

	for _, ri := range c.seeds {
		r := &c.rules[ri]
		for wi, w := range s.ext[^r.body[0]] {
			if r.n == 2 {
				w &= s.ext[^r.body[1]][wi]
			}
			for ; w != 0; w &= w - 1 {
				s.fire(r, tree.NodeID(wi<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	for pops := 1; len(s.queue) > 0; pops++ {
		if pops%hornsat.CheckpointInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		a := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, ri := range c.occ[a.pred] {
			r := &c.rules[ri]
			if r.n == 2 {
				other := r.body[0]
				if other == lit(a.pred) {
					other = r.body[1]
				}
				if !s.holds(other, a.node) {
					continue
				}
			}
			s.fire(r, a.node)
		}
	}

	m := s.vector(c.query)
	k := m.Count()
	if k == 0 {
		return nil, nil
	}
	out := make([]tree.NodeID, 0, k)
	for wi, w := range m {
		for ; w != 0; w &= w - 1 {
			out = append(out, tree.NodeID(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return out, nil
}
