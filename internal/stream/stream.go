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
}

// ErrUnsupported is returned by Compile for expressions outside the
// streamable fragment (qualifiers, unions, non-downward axes, relative
// paths).  It is the fragment check's xpath.ErrNotStreamable, so core's
// LangStream route refuses the same texts with the same error.
var ErrUnsupported = xpath.ErrNotStreamable

// Compile compiles an absolute, qualifier-free downward path expression
// (steps over child, descendant, and descendant-or-self only) into a
// streaming matcher.  Every "//" is fused first (xpath.StreamableSteps), as
// the image evaluator fuses it: //item//keyword compiles to two descendant
// steps, not to four steps of which two test "*".
func Compile(e xpath.Expr) (*Matcher, error) {
	steps, err := xpath.StreamableSteps(e)
	if err != nil {
		return nil, err
	}
	k := len(steps)
	w := k/64 + 1 // states 0..k
	m := &Matcher{
		steps: k, w: w, expr: xpath.String(e),
		child: make([]uint64, w), deep: make([]uint64, w), dos: make([]uint64, w), star: make([]uint64, w),
	}
	for i, s := range steps {
		word, bit := i/64, uint64(1)<<(i%64)
		switch s.Axis {
		case tree.Child:
			m.child[word] |= bit
		case tree.Descendant:
			m.deep[word] |= bit
		case tree.DescendantOrSelf:
			m.deep[word] |= bit
			m.dos[word] |= bit
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
type run struct {
	m     *Matcher
	stack []uint64
	depth int // open elements
	cells int // states held across the whole stack
	stats Stats
}

// start pushes the document-node frame: state 0, closed under leading
// descendant-or-self::* steps (the document node has no label, so only "*"
// tests match it).
func (m *Matcher) start() run {
	r := run{m: m, stack: make([]uint64, 2*m.w, 2*m.w*16)}
	r.stack[0] = 1
	r.settle(r.stack, m.star)
	return r
}

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

// open pushes the frame of a child of the top frame's element passing the
// steps in pass, and reports whether the query selects it.  Child steps fire
// from the parent's exact states, deep steps from the pending set of any
// ancestor-or-self of the parent.
func (r *run) open(pass []uint64) bool {
	m, w := r.m, r.m.w
	top := len(r.stack)
	r.stack = slices.Grow(r.stack, 2*w)[:top+2*w]
	parent, cur := r.stack[top-2*w:top], r.stack[top:]
	var carry uint64
	for i := 0; i < w; i++ {
		fire := (parent[w+i] | parent[i]&m.child[i]) & pass[i]
		cur[i] = fire<<1 | carry
		carry = fire >> 63
		cur[w+i] = parent[w+i]
	}
	r.settle(cur, pass)
	r.depth++
	r.stats.MaxDepth = max(r.stats.MaxDepth, r.depth)
	if cur[m.steps/64]>>(m.steps%64)&1 == 0 {
		return false
	}
	r.stats.Matches++
	return true
}

// close pops the top frame.
func (r *run) close() {
	top := len(r.stack) - 2*r.m.w
	for _, word := range r.stack[top:] {
		r.cells -= bits.OnesCount64(word)
	}
	r.stack = r.stack[:top]
	r.depth--
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
			if r.open(m.pass(ev.Name)) && report != nil {
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
