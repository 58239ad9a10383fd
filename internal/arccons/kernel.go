package arccons

import (
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/tree"
)

// Compiled is an acyclic conjunctive query compiled for the interval-join
// kernel.  It is document-independent — variables are numbered, the query
// graph is a forest rooted at head variables, and every binary atom sits on
// one forest edge, oriented both ways — so one Compiled serves every
// execution of a prepared query and survives a document swap.  Safe for
// concurrent EnumerateCtx calls.
type Compiled struct {
	labels [][]string    // label atoms per variable
	parent []int         // query-forest parent per variable, -1 for a root
	down   [][]tree.Axis // the atoms on edge parent[v]–v as a(parent[v], v)
	up     [][]tree.Axis // the same atoms as a(v, parent[v])
	order  []int         // every variable, parents before children
	walk   []int         // the head-spanning part of order: what enumeration assigns
	head   []int         // the variable of each head position
	dedup  bool          // a walked variable is projected away, so rows can repeat
	unsat  bool          // some self-loop atom R(x, x) is irreflexive
	visits atomic.Int64
}

// Compile checks that q is an acyclic, order-free, safe conjunctive query and
// compiles it for EnumerateCtx.  Each component of the query forest is rooted
// at a head variable when it has one, so the variables enumeration must
// assign — those with a head variable at or below them — are closed upwards;
// the rest only gate satisfiability, which the full reducer settles.
func Compile(q *cq.Query) (*Compiled, error) {
	if len(q.Orders) > 0 {
		return nil, ErrOrderAtoms
	}
	if !q.IsAcyclic() {
		return nil, ErrCyclic
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	vars := q.Variables()
	n := len(vars)
	id := make(map[cq.Variable]int, n)
	c := &Compiled{
		labels: make([][]string, n), parent: make([]int, n),
		down: make([][]tree.Axis, n), up: make([][]tree.Axis, n),
	}
	for i, v := range vars {
		id[v], c.labels[i], c.parent[i] = i, q.LabelsOf(v), -1
	}
	adj := make([][]int, n)
	for _, a := range q.Axes {
		f, t := id[a.From], id[a.To]
		if f == t {
			// R(x, x) holds at every node or at none.
			c.unsat = c.unsat || !a.Axis.IsReflexive()
			continue
		}
		adj[f], adj[t] = append(adj[f], t), append(adj[t], f)
	}
	isHead, seen := make([]bool, n), make([]bool, n)
	var dfs func(v int)
	dfs = func(v int) {
		seen[v] = true
		c.order = append(c.order, v)
		for _, w := range adj[v] {
			if !seen[w] {
				c.parent[w] = v
				dfs(w)
			}
		}
	}
	for _, h := range q.Head {
		c.head = append(c.head, id[h])
		isHead[id[h]] = true
	}
	for _, v := range c.head {
		if !seen[v] {
			dfs(v)
		}
	}
	for v := range vars {
		if !seen[v] {
			dfs(v)
		}
	}
	// The query graph is a forest, so every binary atom joins a variable to
	// its forest parent, in one direction or the other.
	for _, a := range q.Axes {
		f, t := id[a.From], id[a.To]
		switch {
		case f == t:
		case c.parent[t] == f:
			c.down[t], c.up[t] = append(c.down[t], a.Axis), append(c.up[t], a.Axis.Inverse())
		default:
			c.down[f], c.up[f] = append(c.down[f], a.Axis.Inverse()), append(c.up[f], a.Axis)
		}
	}
	needed := append([]bool(nil), isHead...)
	for i := n - 1; i >= 0; i-- {
		if v := c.order[i]; needed[v] && c.parent[v] >= 0 {
			needed[c.parent[v]] = true
		}
	}
	for _, v := range c.order {
		if needed[v] {
			c.walk = append(c.walk, v)
			c.dedup = c.dedup || !isHead[v]
		}
	}
	return c, nil
}

// Visits returns the number of candidate nodes the kernel has visited, in
// reduction and enumeration, over all executions so far.  It is a
// deterministic measure of work for scaling tests.
func (c *Compiled) Visits() int64 { return c.visits.Load() }

// kernel is the state of one execution.  Everything lives in preorder-rank
// space, which is NodeID space: a candidate domain is a bitset over NodeIDs
// and a subtree is the interval [r, End(r)].  Kernels come from the kernels
// pool, so the headers of dom and assign and the row scratch are reused from
// one execution to the next.
type kernel struct {
	c         *Compiled // nil for arcConsistency's fixpoint
	t         *tree.Tree
	n         int
	dom       []bitset.Bits // per variable
	assign    []int         // per variable: the node enumeration currently binds it to
	rows      []tree.NodeID // the answers so far, len(c.head) nodes each
	visits    int
	revisions int // single-axis semi-joins: one image and one poll of ctx each
	err       error
}

// kernels holds released kernels.  It holds pointers, so Put does not box; a
// kernel whose row scratch grew past maxPooledRows on one large answer is
// dropped instead of pinned.
var kernels = sync.Pool{New: func() any { return new(kernel) }}

// kernelsOut counts the kernels taken by newKernel and not yet released.
var kernelsOut atomic.Int64

// Outstanding returns the kernels taken and not yet released.  The tests of
// every package that runs the kernel require it to be back at zero when they
// are done.
func Outstanding() int64 { return kernelsOut.Load() }

// maxPooledRows is the largest row scratch, in nodes (4 bytes each), that a
// released kernel keeps.
const maxPooledRows = 1 << 16

// EnumerateCtx evaluates the compiled query on t.  It is Yannakakis'
// algorithm on rank bitsets: the full reducer — one bottom-up and one
// top-down pass of semi-joins over the query forest — leaves exactly the
// maximal arc-consistent pre-valuation (Prop. 6.9), after which every
// candidate extends to a solution, so the enumeration never backtracks and
// its cost is bounded by input plus output (Prop. 6.10).  ctx is checked on
// entry, after every semi-join of the reducer (one pass over a domain), and
// every enumCheckpointInterval candidate visits of a probing semi-join or of
// the enumeration.
// Answers are sorted and duplicate-free.  The scratch an execution needs comes
// from a pool; the answer is built once, as one exact-size block of nodes and
// the tuple headers sliced over it (see kernel.answers).
func (c *Compiled) EnumerateCtx(ctx context.Context, t *tree.Tree, ix LabelIndex) ([]cq.Answer, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.unsat {
		return nil, nil
	}
	if len(c.order) == 0 {
		return []cq.Answer{{}}, nil
	}
	k := newKernel(t, ix, c.labels)
	k.c, k.assign = c, slices.Grow(k.assign[:0], len(c.order))[:len(c.order)]
	defer k.release()
	if !k.reduce(ctx) {
		return nil, k.err
	}
	if len(c.head) == 0 {
		return []cq.Answer{{}}, nil
	}
	k.enumerate(ctx, 0)
	return k.answers(), k.err
}

// answers copies the row scratch out once, into a block of exactly its size,
// and slices that block into sorted answers: two allocations at any answer
// count.  Duplicates are possible, and looked for, only when enumeration
// bound a variable the head projects away.
func (k *kernel) answers() []cq.Answer {
	if k.err != nil {
		return nil
	}
	w := len(k.c.head)
	block := make([]tree.NodeID, len(k.rows))
	copy(block, k.rows)
	out := make([]cq.Answer, len(block)/w)
	for i := range out {
		out[i] = block[i*w : (i+1)*w : (i+1)*w]
	}
	if k.c.dedup {
		return cq.SortDedupAnswers(out)
	}
	cq.SortAnswers(out)
	return out
}

// newKernel takes a kernel from the pool, binds a document and fills one
// domain per variable from its label atoms.  The caller must release the
// kernel.  A nil ix indexes the tree's labels for this call only.
func newKernel(t *tree.Tree, ix LabelIndex, labels [][]string) *kernel {
	if ix == nil {
		ix = index.New(t)
	}
	kernelsOut.Add(1)
	k := kernels.Get().(*kernel)
	k.t, k.n = t, t.Len()
	k.dom = slices.Grow(k.dom[:0], len(labels))[:len(labels)]
	for v := range k.dom {
		k.dom[v] = k.domain(t, ix, labels[v])
	}
	return k
}

// release returns the domains to the bitset pool, books the visits with the
// compiled query, if any, and returns the kernel, reset, to the kernels pool
// unless its row scratch is over maxPooledRows.
func (k *kernel) release() {
	kernelsOut.Add(-1)
	for _, d := range k.dom {
		bitset.Release(d)
	}
	if k.c != nil {
		k.c.visits.Add(int64(k.visits))
	}
	clear(k.dom)
	*k = kernel{dom: k.dom[:0], assign: k.assign[:0], rows: k.rows[:0]}
	if cap(k.rows) <= maxPooledRows {
		kernels.Put(k)
	}
}

// domain returns the nodes carrying every one of the labels (all nodes when
// there is none).  Each label is resolved to its code in t's dictionary once;
// one the tree lacks empties the domain without touching the index.
func (k *kernel) domain(t *tree.Tree, ix LabelIndex, labels []string) bitset.Bits {
	d := bitset.Acquire(k.n)
	d.SetAll(k.n)
	for _, l := range labels {
		c := t.Dict().Code(l)
		if c == tree.NoCode {
			d.Reset()
			break
		}
		d.And(ix.CodeMask(c))
	}
	return d
}

// tick counts one candidate visit and polls ctx every enumCheckpointInterval
// of them; it reports false once the execution is cancelled.
func (k *kernel) tick(ctx context.Context) bool {
	if k.err != nil {
		return false
	}
	k.visits++
	if k.visits%enumCheckpointInterval == 0 {
		k.err = ctx.Err()
	}
	return k.err == nil
}

// each visits the ranks of s in ascending order until cancelled.  f may clear
// bits of s.
func (k *kernel) each(ctx context.Context, s bitset.Bits, f func(r int)) {
	for wi, w := range s {
		for ; w != 0 && k.tick(ctx); w &= w - 1 {
			f(wi<<6 + bits.TrailingZeros64(w))
		}
	}
}

// reduce is the full reducer.  It reports false when some domain empties (the
// query has no answer) or ctx is cancelled (k.err is then set).
func (k *kernel) reduce(ctx context.Context) bool {
	c := k.c
	for i := len(c.order) - 1; i >= 0; i-- {
		if v := c.order[i]; c.parent[v] >= 0 && !k.semijoin(ctx, c.parent[v], v, c.down[v]) {
			return false
		}
	}
	for _, v := range c.order {
		if p := c.parent[v]; p >= 0 && !k.semijoin(ctx, v, p, c.up[v]) {
			return false
		}
		if !k.dom[v].Any() {
			return false
		}
	}
	return k.err == nil
}

// semijoin keeps in dom[x] the ranks with a partner in dom[y] under every
// axis of axes (given as a(x, y)).  Parallel atoms need one partner
// satisfying all of them, so each candidate is probed on its own.
func (k *kernel) semijoin(ctx context.Context, x, y int, axes []tree.Axis) bool {
	if len(axes) == 1 {
		return k.revise(ctx, x, y, axes[0])
	}
	dx, dy := k.dom[x], k.dom[y]
	k.each(ctx, dx, func(r int) {
		if k.partner(axes, r, -1, dy) < 0 {
			dx.Clear(r)
		}
	})
	return k.err == nil && dx.Any()
}

// revise is the semi-join over one axis a (given as a(x, y)), a set
// operation: intersect dom[x] with the image of dom[y] under the inverse
// axis.  The image takes no ctx: its visits are booked, and ctx polled, here.
func (k *kernel) revise(ctx context.Context, x, y int, a tree.Axis) bool {
	dx := k.dom[x]
	img := bitset.Acquire(k.n)
	k.visits += k.t.Image(a.Inverse(), k.dom[y], img)
	dx.And(img)
	bitset.Release(img)
	k.revisions++
	k.err = ctx.Err()
	return k.err == nil && dx.Any()
}

// next returns the first rank y of dom with a(x, y) when after is -1, and the
// one following after otherwise; -1 when there is no more.  Interval axes
// range-scan dom, Child and the right-sibling axes step across the subtrees
// that tile their interval, and the upward and leftward axes follow their
// column: the cost is the partners found plus what lies between them, never
// the whole of dom.
func (k *kernel) next(a tree.Axis, x, after int, dom bitset.Bits) int {
	t := k.t
	end := func(v int) int { return int(t.End(tree.NodeID(v))) }
	switch a {
	case tree.Descendant:
		return dom.NextInRange(max(x, after)+1, end(x))
	case tree.DescendantOrSelf:
		return dom.NextInRange(max(x-1, after)+1, end(x))
	case tree.Following:
		return dom.NextInRange(max(end(x), after)+1, k.n-1)
	case tree.Preceding:
		for y := dom.NextInRange(after+1, x-1); y >= 0; y = dom.NextInRange(y+1, x-1) {
			if end(y) < x {
				return y
			}
		}
		return -1
	case tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf:
		y, hi := t.Tiles(a, tree.NodeID(x))
		if after >= 0 {
			if a == tree.NextSiblingAxis {
				return -1
			}
			y = tree.NodeID(end(after) + 1)
		}
		for ; y <= hi; y += tree.NodeID(t.SubtreeSize(y)) {
			if dom.Get(int(y)) {
				return int(y)
			}
			if a == tree.NextSiblingAxis {
				break
			}
		}
		return -1
	}
	first, col := t.Hops(a)
	y := tree.NodeID(x)
	switch {
	case after >= 0 && col == nil:
		return -1
	case after >= 0:
		y = col[after]
	case first != nil:
		y = first[x]
	}
	for y >= 0 && !dom.Get(int(y)) {
		if col == nil {
			return -1
		}
		y = col[y]
	}
	return int(y)
}

// partner is next over an edge with parallel atoms: axes[0] drives the scan
// and the remaining atoms filter it.
func (k *kernel) partner(axes []tree.Axis, x, after int, dom bitset.Bits) int {
	for y := k.next(axes[0], x, after, dom); y >= 0; y = k.next(axes[0], x, y, dom) {
		ok := true
		for _, a := range axes[1:] {
			ok = ok && k.t.Holds(a, tree.NodeID(x), tree.NodeID(y))
		}
		if ok {
			return y
		}
	}
	return -1
}

// enumerate binds walk[i:] in every way consistent with the bindings of
// walk[:i] and appends one row per solution.  A root ranges over its reduced
// domain; any other variable over the partners of its parent's binding.
func (k *kernel) enumerate(ctx context.Context, i int) {
	c := k.c
	if i == len(c.walk) {
		for _, h := range c.head {
			k.rows = append(k.rows, tree.NodeID(k.assign[h]))
		}
		return
	}
	v := c.walk[i]
	for y := k.candidate(v, -1); y >= 0 && k.tick(ctx); y = k.candidate(v, y) {
		k.assign[v] = y
		k.enumerate(ctx, i+1)
	}
}

// candidate is the iterator behind enumerate: the next rank for v after
// `after` (-1 to start), given the binding of v's parent.
func (k *kernel) candidate(v, after int) int {
	if p := k.c.parent[v]; p >= 0 {
		return k.partner(k.c.down[v], k.assign[p], after, k.dom[v])
	}
	return k.dom[v].NextInRange(after+1, k.n-1)
}
