// Package stream evaluates forward, downward Core XPath path queries over a
// SAX-style event stream in a single left-to-right pass, using memory
// proportional to the depth of the document times the size of the query --
// the streaming setting of Sections 5 and 7 of the paper.
//
// The evaluator compiles a path of child / descendant / descendant-or-self
// steps into a small NFA over "number of steps matched"; for every open
// element the set of active states is kept on a stack, so the memory
// high-watermark is O(depth * |Q|), matching the lower bound discussion of
// Section 7 (memory at least linear in the depth is unavoidable, and trees
// can be as deep as they are large).  Queries with qualifiers, reverse axes,
// sibling axes, or unions are out of scope of this evaluator and are
// rejected; the paper's Section 5 explains how reverse axes can be rewritten
// away first (see package rewrite for the CQ analogue).
package stream

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/tree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Matcher is a compiled streaming query of |Q| = Steps() steps.  NFA state i
// means "the first i steps have matched"; step i leads from state i to state
// i+1.  Sets of states and sets of steps are bit vectors of w words (bit i =
// state i, or step i), so w is 1 for every query of fewer than 64 steps.
type Matcher struct {
	steps int
	w     int
	expr  string

	child []uint64 // steps on the child axis
	deep  []uint64 // descendant and descendant-or-self steps: may fire anywhere below
	dos   []uint64 // descendant-or-self steps: may also fire on the very same node
	star  []uint64 // steps whose test is "*": every element passes them
	// tests holds the distinct label tests; byTest[j] is the set of steps an
	// element named tests[j] passes (the steps testing for it, and star).
	tests  []string
	byTest [][]uint64
	// last is the index in tests of the final step's test, or -1 for "*".
	last int
}

// ErrUnsupported is returned by Compile for expressions outside the
// streamable fragment (qualifiers, unions, non-downward axes, relative
// paths).
var ErrUnsupported = errors.New("stream: expression is outside the streamable downward-path fragment")

// Compile compiles an absolute, qualifier-free downward path expression
// (steps over child, descendant, and descendant-or-self only) into a
// streaming matcher.  Every "//" is fused first (xpath.Fuse), as the image
// evaluator fuses it: //item//keyword compiles to two descendant steps, not
// to four steps of which two test "*".
func Compile(e xpath.Expr) (*Matcher, error) {
	path, ok := e.(*xpath.Path)
	if !ok || !path.Absolute || len(path.Steps) == 0 {
		return nil, ErrUnsupported
	}
	steps := make([]xpath.Step, 0, len(path.Steps))
	for i := 0; i < len(path.Steps); i++ {
		s := path.Steps[i]
		if i+1 < len(path.Steps) {
			if f, ok := xpath.Fuse(s, path.Steps[i+1]); ok {
				s, i = f, i+1
			}
		}
		steps = append(steps, s)
	}
	k := len(steps)
	w := k/64 + 1 // states 0..k
	m := &Matcher{
		steps: k, w: w, expr: xpath.String(e),
		child: make([]uint64, w), deep: make([]uint64, w), dos: make([]uint64, w), star: make([]uint64, w),
		last: -1,
	}
	for i, s := range steps {
		if len(s.Quals) > 0 {
			return nil, ErrUnsupported
		}
		word, bit := i/64, uint64(1)<<(i%64)
		switch s.Axis {
		case tree.Child:
			m.child[word] |= bit
		case tree.Descendant:
			m.deep[word] |= bit
		case tree.DescendantOrSelf:
			m.deep[word] |= bit
			m.dos[word] |= bit
		default:
			return nil, ErrUnsupported
		}
		if s.Test == "*" {
			m.star[word] |= bit
			continue
		}
		j := slices.Index(m.tests, s.Test)
		if j < 0 {
			j = len(m.tests)
			m.tests = append(m.tests, s.Test)
			m.byTest = append(m.byTest, make([]uint64, w))
		}
		m.byTest[j][word] |= bit
		if i == k-1 {
			m.last = j
		}
	}
	for _, mask := range m.byTest {
		for i := range mask {
			mask[i] |= m.star[i]
		}
	}
	return m, nil
}

// MustCompile is like Compile but panics on error.
func MustCompile(e xpath.Expr) *Matcher {
	m, err := Compile(e)
	if err != nil {
		panic(err)
	}
	return m
}

// String returns the source expression of the matcher.
func (m *Matcher) String() string { return m.expr }

// Steps returns the number of compiled steps (the |Q| of the memory bound),
// after "//" fusion.
func (m *Matcher) Steps() int { return m.steps }

// pass returns the steps an element named name passes.
func (m *Matcher) pass(name string) []uint64 {
	if j := slices.Index(m.tests, name); j >= 0 {
		return m.byTest[j]
	}
	return m.star
}

// Stats reports the resources used by one streaming run.
type Stats struct {
	// Events is the number of input events processed.
	Events int
	// MaxDepth is the maximum element nesting depth seen.
	MaxDepth int
	// MaxStateCells is the high-watermark of the total number of NFA states
	// held across the whole stack -- the memory measure of experiment E14.
	MaxStateCells int
	// Matches is the number of elements selected by the query.
	Matches int
}

// run is the state of one pass.  Per open element (and for the document node)
// the stack holds one frame of 2w words, two state sets:
//
//	states:  i means "the first i steps have matched with step i's node
//	         being exactly this element" (0 on the document node).
//	pending: i means "the first i steps have matched at some
//	         ancestor-or-self of this element and step i+1 is a
//	         descendant(-or-self) step, so it may fire anywhere below".
//
// Both sets have at most |Q|+1 members, so memory is O(depth * |Q|) bits.
// Each frame is followed by fMeta bookkeeping words.
type run struct {
	m     *Matcher
	fw    int // words per frame: 2w state words and fMeta bookkeeping words
	stack []uint64
	depth int // open elements
	cells int // states held across the whole stack
	opens int // frames opened
	stats Stats
}

// The bookkeeping words of a frame, after its 2w state words.
const (
	fCells = iota // states held by this frame and every frame below it
	fDepth        // open elements, this one included
	fNode         // the tree node owning the frame (tree walk only)
	fEnd          // the last node of its subtree (tree walk only)
	fMeta
)

// start pushes the document-node frame: state 0, closed under leading
// descendant-or-self::* steps (the document node has no label, so only "*"
// tests match it).
func (m *Matcher) start() run {
	fw := 2*m.w + fMeta
	r := run{m: m, fw: fw, stack: make([]uint64, fw, fw*16)}
	r.stack[0] = 1
	r.settle(r.stack, m.star)
	r.stack[2*m.w+fCells] = uint64(r.cells)
	return r
}

// top returns the frame on top of the stack.
func (r *run) top() []uint64 { return r.stack[len(r.stack)-r.fw:] }

// settle finishes the frame cur for a node passing the steps in pass: states
// are closed under descendant-or-self steps (such a step can also match the
// very node that completed the previous step), and the node's own deep
// continuations join the pending set it inherited.
func (r *run) settle(cur, pass []uint64) {
	m, w := r.m, r.m.w
	for grew := true; grew; {
		grew = false
		var carry uint64
		for i := 0; i < w; i++ {
			fire := cur[i] & m.dos[i] & pass[i]
			next := fire<<1 | carry
			carry = fire >> 63
			if next&^cur[i] != 0 {
				cur[i] |= next
				grew = true
			}
		}
	}
	for i := 0; i < w; i++ {
		cur[w+i] |= cur[i] & m.deep[i]
		r.cells += bits.OnesCount64(cur[i]) + bits.OnesCount64(cur[w+i])
	}
	r.stats.MaxStateCells = max(r.stats.MaxStateCells, r.cells)
}

// open pushes the frame of an element passing the steps in pass, depth open
// elements deep, and reports whether the query selects it.  The top frame is
// its nearest ancestor's that has one; the depth-1-top levels in between are
// elements no step test passes, each holding a copy of the top frame's
// pending set and nothing else, so child steps fire from the top frame's
// exact states only when it is the parent's (child).
func (r *run) open(pass []uint64, depth int, child bool) ([]uint64, bool) {
	m, w, fw := r.m, r.m.w, r.fw
	top := len(r.stack)
	r.stack = slices.Grow(r.stack, fw)[:top+fw]
	parent, cur := r.stack[top-fw:top], r.stack[top:]
	gap := depth - int(parent[2*w+fDepth]) - 1
	// Child steps fire from the parent's exact states, deep steps from the
	// pending set of any ancestor-or-self of the parent.
	var carry uint64
	for i := 0; i < w; i++ {
		from := parent[w+i]
		if child {
			from |= parent[i] & m.child[i]
		}
		fire := from & pass[i]
		cur[i] = fire<<1 | carry
		carry = fire >> 63
		cur[w+i] = parent[w+i]
		r.cells += gap * bits.OnesCount64(parent[w+i])
	}
	r.settle(cur, pass)
	r.opens++
	r.depth = depth
	cur[2*w+fCells], cur[2*w+fDepth] = uint64(r.cells), uint64(depth)
	r.stats.MaxDepth = max(r.stats.MaxDepth, depth)
	if cur[m.steps/64]>>(m.steps%64)&1 == 0 {
		return cur, false
	}
	r.stats.Matches++
	return cur, true
}

// close pops the top frame.
func (r *run) close() {
	r.stack = r.stack[:len(r.stack)-r.fw]
	top := r.top()
	r.cells, r.depth = int(top[2*r.m.w+fCells]), int(top[2*r.m.w+fDepth])
}

// Run processes the event stream and calls report (if non-nil) with the
// 1-based preorder index of every element selected by the query, in document
// order.  It returns the run statistics.  The input must be well-formed
// (as produced by xmldoc.Tokenize or xmldoc.Events); Run returns an error on
// events that close elements that were never opened.  An element is tested
// by its name alone: XML carries one name per element, and the attribute
// labels of xmldoc.Parse are not names.
func (m *Matcher) Run(events []xmldoc.Event, report func(pre int)) (Stats, error) {
	r := m.start()
	pre := 0
	for _, ev := range events {
		r.stats.Events++
		switch ev.Kind {
		case xmldoc.StartElement:
			pre++
			if _, ok := r.open(m.pass(ev.Name), r.depth+1, true); ok && report != nil {
				report(pre)
			}
		case xmldoc.EndElement:
			if r.depth == 0 {
				return r.stats, fmt.Errorf("stream: unmatched end element %q", ev.Name)
			}
			r.close()
		case xmldoc.Text:
			// Core XPath ignores character data.
		}
	}
	if r.depth != 0 {
		return r.stats, errors.New("stream: input ended with unclosed elements")
	}
	return r.stats, nil
}

// RunOnTree runs the matcher over the resident tree t and returns the
// selected nodes (NodeIDs of t, in document order) and the stats of Run over
// t's events.  nodes(a) must return the nodes of t carrying label a in
// document order (t.NodesWithLabel, or an index's cached lists).
//
// An element that passes no step test can select nothing: its frame holds no
// states of its own, only a copy of its parent's pending set.  So the walk
// opens frames only for the nodes carrying one of the query's labels — the
// preorder merge of their lists — and for every node when a "*" test
// survives fusion.  A visited node's frame goes on top of its nearest
// visited ancestor's (the stack is popped by End), and a node carrying
// several query labels passes the steps of each, like the XPath evaluators
// and unlike Run.  The skipped nodes still count: Events and MaxDepth are
// the tree's, and MaxStateCells is swept over the skipped ranges.
func (m *Matcher) RunOnTree(t *tree.Tree, nodes func(label string) []tree.NodeID) ([]tree.NodeID, Stats, error) {
	out, r := m.walk(t, nodes)
	return out, r.stats, nil
}

// walk is RunOnTree; it also returns the run, whose opens counts the frames
// the walk opened.
func (m *Matcher) walk(t *tree.Tree, nodes func(label string) []tree.NodeID) ([]tree.NodeID, run) {
	w, n := m.w, tree.NodeID(t.Len())
	r := m.start()
	r.own(r.stack, tree.InvalidNode, n-1)
	var fixed [8][]tree.NodeID
	lists := fixed[:0]
	for _, test := range m.tests {
		lists = append(lists, nodes(test))
	}
	every := slices.ContainsFunc(m.star, func(word uint64) bool { return word != 0 })
	var out []tree.NodeID
	var one [1]uint64
	scratch := one[:0]     // the steps of a node carrying several query labels
	next := tree.NodeID(0) // the nodes before next are visited or swept
	for {
		v := n
		if every {
			v = next
		}
		for _, l := range lists {
			if len(l) > 0 && l[0] < v {
				v = l[0]
			}
		}
		if v >= n {
			break
		}
		pass, carried := m.star, 0
		for j, l := range lists {
			if len(l) == 0 || l[0] != v {
				continue
			}
			lists[j] = l[1:]
			if carried++; carried == 1 {
				pass = m.byTest[j]
				continue
			}
			if carried == 2 {
				scratch = append(scratch[:0], pass...)
				pass = scratch
			}
			for i, word := range m.byTest[j] {
				pass[i] |= word
			}
		}
		r.sweep(t, next, v)
		r.closeBefore(v)
		f, selected := r.open(pass, t.Depth(v)+1, t.Parent(v) == tree.NodeID(r.top()[2*w+fNode]))
		r.own(f, v, t.End(v))
		if selected {
			if out == nil && m.last >= 0 {
				// Every match carries the last step's label: it is v or
				// in the rest of that label's list.
				out = make([]tree.NodeID, 0, len(lists[m.last])+1)
			}
			out = append(out, v)
		}
		next = v + 1
	}
	r.sweep(t, next, n)
	r.stats.Events = 2*t.Len() + t.TextNodes()
	r.stats.MaxDepth = t.Height()
	return out, r
}

// own records in frame f the node owning it and the end of its subtree.
func (r *run) own(f []uint64, v, end tree.NodeID) {
	f[2*r.m.w+fNode], f[2*r.m.w+fEnd] = uint64(v), uint64(end)
}

// closeBefore pops the frames of the subtrees that end before node v.
func (r *run) closeBefore(v tree.NodeID) {
	for tree.NodeID(r.top()[2*r.m.w+fEnd]) < v {
		r.close()
	}
}

// sweep accounts for the skipped nodes in [from, to) in MaxStateCells.  Run
// opens a frame for each: a skipped node under the frame u of its nearest
// visited ancestor (or of the document) sits below one frame per level since
// u, each holding a copy of u's pending set and nothing else.  So only the
// deepest skipped node under each u matters, and not even that when u's
// pending set is empty or the tree is too shallow to beat the high-water
// mark.
func (r *run) sweep(t *tree.Tree, from, to tree.NodeID) {
	w := r.m.w
	for s := from; s < to; {
		r.closeBefore(s)
		u := r.top()
		hi := min(to, tree.NodeID(u[2*w+fEnd])+1)
		pending := 0
		for _, word := range u[w : 2*w] {
			pending += bits.OnesCount64(word)
		}
		cells, depth := int(u[2*w+fCells]), int(u[2*w+fDepth])
		if pending > 0 && cells+(t.Height()-depth)*pending > r.stats.MaxStateCells {
			deepest := 0
			for ; s < hi; s++ {
				deepest = max(deepest, t.Depth(s)+1)
			}
			r.stats.MaxStateCells = max(r.stats.MaxStateCells, cells+(deepest-depth)*pending)
		}
		s = hi
	}
}
