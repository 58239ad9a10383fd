package mdatalog

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/tree"
)

// CheckpointInterval is how many nodes an image step or a sweep covers, or
// how many atoms a queue pops, between two ctx.Err() polls of SolveCtx: a
// cancelled solve stops within one interval of work.  It is a multiple of
// 64, so steps and sweeps poll on word boundaries.
const CheckpointInterval = 1024

// hop is where a rule derives its head relative to the node u its body holds
// at: at u itself (TMNF forms 1 and 3) or across one tau+ edge (form 2).
type hop uint8

// The three inverse hops follow the three forward ones in the same order
// (hopOf relies on it).  The forward hops derive at a larger preorder rank
// than u, the inverse ones at a smaller rank (backward relies on it).
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

// backward reports whether h derives its head at a smaller rank than the
// node its body holds at.
func (h hop) backward() bool { return h >= hopFirstChildOf }

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

// rule is a compiled rule over vector indices — the intensional predicates,
// then the extensional literals: head holds at hop(u) when vectors body[0]
// and body[1] hold at u.  A one-literal body names its literal twice.
type rule struct {
	head int32
	body [2]int32
	hop  hop
}

// schedule is how SolveCtx evaluates one strongly connected component of the
// predicate graph.
type schedule uint8

const (
	// scheduleImage is a non-recursive component: each rule reads only
	// earlier components and the masks, and is applied to all nodes at once.
	scheduleImage schedule = iota
	// scheduleBackward is a recursive component whose recursive rules stay
	// at their node or derive at a smaller rank: one sweep from rank n-1 to 0.
	scheduleBackward
	// scheduleForward is the mirror image: one sweep from rank 0 to n-1.
	scheduleForward
	// scheduleQueue is a component whose recursive rules point both ways:
	// unit propagation from the atoms its non-recursive rules derive.
	scheduleQueue
)

var scheduleNames = [...]string{"image step", "backward sweep", "forward sweep", "queue"}

func (k schedule) String() string { return scheduleNames[k] }

// component is one strongly connected component of the predicate graph and
// the rules deriving its predicates: step rules read only earlier components
// and the masks; self and cross rules read the component itself, at their
// node (self) or across a hop (cross).
type component struct {
	kind              schedule
	step, self, cross []rule
}

// Compiled is a TMNF program resolved for evaluation on any tree: what
// Ground would instantiate once per node or edge is kept once per rule, and
// SolveCtx derives the instances from the tree's own links.  It holds no
// document state and is safe for concurrent solves.
type Compiled struct {
	preds   []string // surviving intensional predicates, by index
	query   int32
	exts    []extLit
	rules   []rule      // grouped by component, each group step, self, cross
	comps   []component // in evaluation order: each reads itself and earlier ones
	occ     [][]int32   // per predicate of a queue component, the recursive rules it is a body literal of
	derived atomic.Int64
}

// NumRules returns the number of rules left after copy elimination.
func (c *Compiled) NumRules() int { return len(c.rules) }

// NumPredicates returns the number of intensional predicates left after copy
// elimination; a solve keeps one bit per predicate and node.
func (c *Compiled) NumPredicates() int { return len(c.preds) }

// Schedules names the schedule of each strongly connected component of the
// predicate graph — "image step", "backward sweep", "forward sweep" or
// "queue" — in the order SolveCtx evaluates them.
func (c *Compiled) Schedules() []string {
	out := make([]string, len(c.comps))
	for i, k := range c.comps {
		out[i] = k.kind.String()
	}
	return out
}

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
// node it holds of.  What is left is scheduled component by component (see
// schedule).
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
	for i := range rules {
		r := &rules[i]
		r.head = dense[r.head]
		for k, l := range r.body[:r.n] {
			if l >= 0 {
				r.body[k] = lit(dense[l])
			}
		}
	}
	c.schedule(rules)
	return c, nil
}

// schedule condenses the predicate graph — an edge from each rule's head to
// each intensional literal of its body — into strongly connected components
// in evaluation order, and gives each component its schedule.  Every cross
// hop points one way in preorder, so a component whose recursive rules all
// point the same way is settled by one sweep over the ranks in that
// direction; one with no recursive rule is a single image step; only one
// whose rules point both ways needs a queue.
func (c *Compiled) schedule(rules []crule) {
	np := len(c.preds)
	deps := make([][]int32, np)
	for _, r := range rules {
		for _, l := range r.body[:r.n] {
			if l >= 0 {
				deps[r.head] = append(deps[r.head], int32(l))
			}
		}
	}
	comp, ncomp := components(deps)

	// class is 0 for a step rule, 1 for a self rule and 2 for a cross rule.
	class := func(r *crule) int {
		for _, l := range r.body[:r.n] {
			if l >= 0 && comp[l] == comp[r.head] {
				if r.hop == hopSelf {
					return 1
				}
				return 2
			}
		}
		return 0
	}
	slices.SortStableFunc(rules, func(a, b crule) int {
		return cmp.Or(cmp.Compare(comp[a.head], comp[b.head]), cmp.Compare(class(&a), class(&b)))
	})
	vector := func(l lit) int32 {
		if l >= 0 {
			return int32(l)
		}
		return int32(np) + int32(^l)
	}
	c.rules = make([]rule, len(rules))
	counts := make([][3]int, ncomp)
	for i := range rules {
		r := &rules[i]
		c.rules[i] = rule{head: r.head, body: [2]int32{vector(r.body[0]), vector(r.body[r.n-1])}, hop: r.hop}
		counts[comp[r.head]][class(r)]++
	}

	c.comps = make([]component, ncomp)
	off := 0
	for ci := range c.comps {
		k := &c.comps[ci]
		for cls, part := range [...]*[]rule{&k.step, &k.self, &k.cross} {
			*part = c.rules[off : off+counts[ci][cls] : off+counts[ci][cls]]
			off += counts[ci][cls]
		}
		forward, backward := false, false
		for _, r := range k.cross {
			backward = backward || r.hop.backward()
			forward = forward || !r.hop.backward()
		}
		switch {
		case len(k.self)+len(k.cross) == 0:
			k.kind = scheduleImage
		case forward && backward:
			k.kind = scheduleQueue
		case forward:
			k.kind = scheduleForward
		default:
			k.kind = scheduleBackward
		}
		if k.kind != scheduleQueue {
			continue
		}
		if c.occ == nil {
			c.occ = make([][]int32, np)
		}
		for ri := off - len(k.self) - len(k.cross); ri < off; ri++ {
			b := c.rules[ri].body
			for j, v := range b {
				if int(v) < np && comp[v] == int32(ci) && (j == 0 || v != b[0]) {
					c.occ[v] = append(c.occ[v], int32(ri))
				}
			}
		}
	}
}

// components numbers the strongly connected components of the graph with an
// edge from p to each q in deps[p] (Tarjan's algorithm), so that every edge
// leads to the same or a smaller number: in ascending order, each component
// comes after every component it reads.  It returns each node's component
// and the number of components.
func components(deps [][]int32) (comp []int32, n int32) {
	order := make([]int32, len(deps)) // 1 + DFS visit order; 0 = unvisited
	low := make([]int32, len(deps))
	comp = make([]int32, len(deps))
	onStack := make([]bool, len(deps))
	var stack []int32
	visited := int32(0)
	var visit func(p int32)
	visit = func(p int32) {
		visited++
		order[p], low[p] = visited, visited
		stack = append(stack, p)
		onStack[p] = true
		for _, q := range deps[p] {
			if order[q] == 0 {
				visit(q)
				low[p] = min(low[p], low[q])
			} else if onStack[q] {
				low[p] = min(low[p], order[q])
			}
		}
		if low[p] != order[p] {
			return
		}
		for {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[q] = false
			comp[q] = n
			if q == p {
				break
			}
		}
		n++
	}
	for p := range deps {
		if order[p] == 0 {
			visit(int32(p))
		}
	}
	return comp, n
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
// itself; vec is every vector a rule names, by vector index — the
// predicates', then each extensional literal's mask; queue holds the atoms a
// queue component derived but has not propagated yet.
type solver struct {
	c      *Compiled
	t      *tree.Tree
	stride int // words per vector
	words  []uint64
	vec    []bitset.Bits
	queue  []atom
	fired  []uint64 // per cross rule, the nodes of the swept word it fired at
}

var solverPool = sync.Pool{New: func() any { return &solver{} }}

// solversOut counts the solvers taken by newSolver and not yet released.
var solversOut atomic.Int64

// Outstanding returns the solvers taken and not yet released.  The tests of
// every package that solves a compiled program require it to be back at zero
// when they are done.
func Outstanding() int64 { return solversOut.Load() }

// newSolver takes a solver from the pool and binds it to c on t.  Label
// masks come from masks when there is one; every other extensional mask is
// scanned off the tree into the scratch.  The caller must release it.
func (c *Compiled) newSolver(t *tree.Tree, masks LabelMasks) *solver {
	n := t.Len()
	solversOut.Add(1)
	s := solverPool.Get().(*solver)
	s.c, s.t, s.stride = c, t, bitset.WordsFor(n)
	s.queue = s.queue[:0]
	if need := (len(c.preds) + len(c.exts)) * s.stride; cap(s.words) < need {
		s.words = make([]uint64, need)
	} else {
		s.words = s.words[:need]
		clear(s.words)
	}
	s.vec = slices.Grow(s.vec[:0], len(c.preds)+len(c.exts))[:len(c.preds)+len(c.exts)]
	for i := range c.preds {
		s.vec[i] = s.scratch(i)
	}
	for i, e := range c.exts {
		// Each label is resolved to its code once; a label the tree lacks
		// holds nowhere, and its scratch vector stays empty.
		v := len(c.preds) + i
		code := t.Dict().Code(e.label)
		if e.kind == extLabel && masks != nil && code != tree.NoCode {
			s.vec[v] = masks.CodeMask(code)
			continue
		}
		m := s.scratch(v)
		s.vec[v] = m
		switch e.kind {
		case extRoot:
			m.Set(0)
		case extLeaf:
			for u := range tree.NodeID(n) {
				if t.IsLeaf(u) {
					m.Set(int(u))
				}
			}
		case extFirstSibling:
			for u := range tree.NodeID(n) {
				if t.IsFirstSibling(u) {
					m.Set(int(u))
				}
			}
		case extLastSibling:
			// A node is a last sibling unless it is some node's left sibling.
			m.SetAll(n)
			for u := range tree.NodeID(n) {
				if p := t.PrevSibling(u); p != tree.InvalidNode {
					m.Clear(int(p))
				}
			}
		default:
			t.MarkCode(code, m)
		}
	}
	return s
}

// scratch returns the i-th vector of the pooled words.
func (s *solver) scratch(i int) bitset.Bits {
	return s.words[i*s.stride:][:s.stride]
}

// release books the atoms derived — the bits set in the predicates' vectors,
// each derived once — drops what the solve borrowed and returns the scratch
// to the pool.
func (s *solver) release() {
	derived := 0
	for _, m := range s.vec[:len(s.c.preds)] {
		derived += m.Count()
	}
	s.c.derived.Add(int64(derived))
	clear(s.vec)
	s.c, s.t = nil, nil
	solversOut.Add(-1)
	solverPool.Put(s)
}

// mark derives pred(v) in a queue component: it queues the atom unless it
// holds already.
func (s *solver) mark(pred int32, v tree.NodeID) {
	if m, bit := s.vec[pred], uint64(1)<<uint(v&63); m[v>>6]&bit == 0 {
		m[v>>6] |= bit
		s.queue = append(s.queue, atom{pred, v})
	}
}

// fire derives r's head from the node u its body holds at, in a queue
// component.
func (s *solver) fire(r *rule, u tree.NodeID) {
	t, v := s.t, u
	switch r.hop {
	case hopFirstChild:
		v = t.FirstChild(u)
	case hopNextSibling:
		v = t.NextSibling(u)
	case hopChild:
		for v = t.FirstChild(u); v != tree.InvalidNode; v = t.NextSibling(v) {
			s.mark(r.head, v)
		}
	case hopFirstChildOf:
		if v = t.Parent(u); v != u-1 {
			v = tree.InvalidNode
		}
	case hopPrevSibling:
		v = t.PrevSibling(u)
	case hopParent:
		v = t.Parent(u)
	}
	if v != tree.InvalidNode {
		s.mark(r.head, v)
	}
}

// fireWord derives r's head, without queueing it, from the nodes of word wi
// whose bits are set in w.  The heads that land in word wi itself — most of
// a sweep's — are gathered in a register and stored once, so that they do
// not chain a store and a load per head through one word.
func (s *solver) fireWord(r *rule, wi int, w uint64) {
	t, head := s.t, s.vec[r.head]
	near := uint64(0)
	switch r.hop {
	case hopSelf:
		near = w
	case hopFirstChild:
		// A word shift: u+1 is u's first child when u has children.
		parents := uint64(0)
		for x := w; x != 0; x &= x - 1 {
			if u := wi<<6 | bits.TrailingZeros64(x); t.SubtreeSize(tree.NodeID(u)) > 1 {
				parents |= 1 << uint(u&63)
			}
		}
		near = parents << 1
		if parents>>63 != 0 {
			head[wi+1] |= 1
		}
	case hopFirstChildOf:
		// The other way: u-1 is u's parent when it has children.
		firsts := uint64(0)
		for x := w; x != 0; x &= x - 1 {
			if u := wi<<6 | bits.TrailingZeros64(x); u > 0 && t.SubtreeSize(tree.NodeID(u-1)) > 1 {
				firsts |= 1 << uint(u&63)
			}
		}
		near = firsts >> 1
		if firsts&1 != 0 {
			head[wi-1] |= 1 << 63
		}
	case hopChild:
		for ; w != 0; w &= w - 1 {
			u := tree.NodeID(wi<<6 | bits.TrailingZeros64(w))
			for v := t.FirstChild(u); v != tree.InvalidNode; v = t.NextSibling(v) {
				if int(v>>6) == wi {
					near |= 1 << uint(v&63)
				} else {
					head[v>>6] |= 1 << uint(v&63)
				}
			}
		}
	default:
		// One link each: the next or previous sibling or the parent.
		var col []tree.NodeID
		switch r.hop {
		case hopPrevSibling:
			col, _ = t.Hops(tree.PrevSiblingAxis)
		case hopParent:
			col, _ = t.Hops(tree.Parent)
		}
		for ; w != 0; w &= w - 1 {
			u := tree.NodeID(wi<<6 | bits.TrailingZeros64(w))
			var v tree.NodeID
			if col != nil {
				v = col[u]
			} else {
				v = t.NextSibling(u)
			}
			if int(v>>6) == wi {
				near |= 1 << uint(v&63)
			} else if v != tree.InvalidNode {
				head[v>>6] |= 1 << uint(v&63)
			}
		}
	}
	head[wi] |= near
}

// holds reports whether r's body holds at u.
func (s *solver) holds(r *rule, u tree.NodeID) bool {
	w := u >> 6
	return s.vec[r.body[0]][w]&s.vec[r.body[1]][w]&(1<<uint(u&63)) != 0
}

// SolveCtx evaluates the compiled program on t and returns the nodes the
// query predicate holds of, in ascending NodeID order.  It settles the
// strongly connected components of the predicate graph one after another,
// each by its schedule: the rules that read only earlier components and the
// masks are one image step over all nodes; then a component whose recursive
// rules point to smaller preorder ranks is one backward sweep, one whose
// rules point to larger ranks one forward sweep, and one whose rules point
// both ways runs Minoux' unit propagation from the atoms its step derived.
// A step costs a word operation per rule and word plus a hop per node a
// body holds at, a sweep settles a word in at most two rounds more than the
// atoms derived in it, and a queue pops each atom once: linear in the tree
// for a fixed program, and Theorem 3.2's O(|P| * |Dom|) for components of
// one predicate, with one bit per predicate and node as the only
// per-document state.  masks may be nil (labels are then scanned off the
// tree).  ctx is checked on entry and every CheckpointInterval nodes stepped
// or swept or atoms popped.
func (c *Compiled) SolveCtx(ctx context.Context, t *tree.Tree, masks LabelMasks) ([]tree.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.newSolver(t, masks)
	defer s.release()
	for i := range c.comps {
		if err := s.solve(ctx, &c.comps[i]); err != nil {
			return nil, err
		}
	}

	m := s.vec[c.query]
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

// solve settles component k, whose reads of earlier components are settled.
func (s *solver) solve(ctx context.Context, k *component) error {
	if err := s.step(ctx, k.step, k.kind == scheduleQueue); err != nil {
		return err
	}
	switch k.kind {
	case scheduleBackward, scheduleForward:
		return s.sweep(ctx, k)
	case scheduleQueue:
		return s.propagate(ctx)
	}
	return nil
}

// step applies rules, whose bodies are settled, at every node, a word at a
// time: the nodes of a word their body holds at are two word ANDs, and
// their heads one word OR for a rule at the node, a word shift for a
// first-child hop, and one link per node for the others.  When queue is set
// it queues each atom it derives instead.  It polls ctx every
// CheckpointInterval nodes.
func (s *solver) step(ctx context.Context, rules []rule, queue bool) error {
	const chunk = CheckpointInterval / 64
	for lo := 0; lo < s.stride && len(rules) > 0; lo += chunk {
		for wi := lo; wi < min(lo+chunk, s.stride); wi++ {
			for i := range rules {
				r := &rules[i]
				w := s.vec[r.body[0]][wi] & s.vec[r.body[1]][wi]
				if w == 0 {
					continue
				}
				if !queue {
					s.fireWord(r, wi, w)
					continue
				}
				for ; w != 0; w &= w - 1 {
					s.fire(r, tree.NodeID(wi<<6|bits.TrailingZeros64(w)))
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// sweep settles a backward or forward component in one pass over the words
// of 64 ranks in its direction.  Its cross rules derive heads only in the
// direction of the pass, so when the pass reaches a word, every atom a node
// outside the word derives in it is there, and the word is settled to a
// fixpoint on its own: rounds of the self rules, as word operations, and of
// the cross rules, fired at the nodes of the word their body newly holds at,
// until a round adds nothing.  A word where no recursive rule's body holds
// costs one round.  It polls ctx every CheckpointInterval nodes.
func (s *solver) sweep(ctx context.Context, k *component) error {
	const chunk = CheckpointInterval / 64
	vec, self, cross := s.vec, k.self, k.cross
	fired := slices.Grow(s.fired[:0], len(cross))[:len(cross)]
	s.fired = fired
	for lo := 0; lo < s.stride; lo += chunk {
		for i := lo; i < min(lo+chunk, s.stride); i++ {
			wi := i
			if k.kind == scheduleBackward {
				wi = s.stride - 1 - i
			}
			clear(fired)
			for progress := true; progress; {
				progress = false
				for j := range self {
					r := &self[j]
					h := vec[r.head]
					if add := vec[r.body[0]][wi] & vec[r.body[1]][wi] &^ h[wi]; add != 0 {
						h[wi] |= add
						progress = true
					}
				}
				for j := range cross {
					r := &cross[j]
					if w := vec[r.body[0]][wi] & vec[r.body[1]][wi] &^ fired[j]; w != 0 {
						fired[j] |= w
						s.fireWord(r, wi, w)
						progress = true
					}
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// propagate is a queue component's unit propagation: popping p(u) fires the
// component's rules p occurs in whose body holds at u, across the rule's
// hop.  It polls ctx every CheckpointInterval pops.
func (s *solver) propagate(ctx context.Context) error {
	for pops := 1; len(s.queue) > 0; pops++ {
		if pops%CheckpointInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, ri := range s.c.occ[a.pred] {
			if r := &s.c.rules[ri]; s.holds(r, a.node) {
				s.fire(r, a.node)
			}
		}
	}
	return nil
}
