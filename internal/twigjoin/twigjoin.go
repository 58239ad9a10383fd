// Package twigjoin implements holistic twig joins (Section 6 of the paper,
// discussing Bruno/Koudas/Srivastava's TwigStack [13]): matching tree-shaped
// ("twig") patterns whose edges are Child or Descendant relationships
// against a document, processing each pattern node's label stream in
// document order with per-pattern-node stacks instead of evaluating one
// structural join at a time.
//
// The package provides
//
//   - PathStack, the stack-based algorithm for linear (path) patterns: all
//     matches of a root-to-leaf path are encoded compactly on the stacks and
//     enumerated output-sensitively,
//   - MatchTwig, which matches a general twig holistically through the
//     paper's generalization of the idea: the twig is an acyclic conjunctive
//     query, reduced and enumerated by the interval-join kernel of package
//     arccons in input plus output time, and
//   - ToCQ, the translation of twig patterns into conjunctive queries that
//     MatchTwig runs and the tests cross-check against the generic CQ
//     machinery.
package twigjoin

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/tree"
)

// EdgeKind is the relationship between a pattern node and its parent.
type EdgeKind int

const (
	// ChildEdge requires the document node to be a child of its parent match.
	ChildEdge EdgeKind = iota
	// DescendantEdge requires the document node to be a descendant of its
	// parent match.
	DescendantEdge
)

// String renders the edge kind using the usual XPath separators.
func (k EdgeKind) String() string {
	if k == ChildEdge {
		return "/"
	}
	return "//"
}

// Twig is a tree-shaped pattern.  Node 0 is the root; Parent[i] < i for all
// i > 0.  Labels[i] is the required label of pattern node i ("*" for any).
// Edge[i] relates node i to Parent[i] (Edge[0] is the relationship of the
// pattern root to the document root: DescendantEdge means "anywhere",
// ChildEdge means the pattern root must be the document root).
type Twig struct {
	Labels []string
	Parent []int
	Edge   []EdgeKind
}

// Validate checks the structural invariants of the pattern.
func (tw *Twig) Validate() error {
	if len(tw.Labels) == 0 {
		return errors.New("twigjoin: empty pattern")
	}
	if len(tw.Parent) != len(tw.Labels) || len(tw.Edge) != len(tw.Labels) {
		return errors.New("twigjoin: Labels, Parent and Edge must have the same length")
	}
	if tw.Parent[0] != -1 {
		return errors.New("twigjoin: Parent[0] must be -1")
	}
	for i := 1; i < len(tw.Parent); i++ {
		if tw.Parent[i] < 0 || tw.Parent[i] >= i {
			return fmt.Errorf("twigjoin: Parent[%d] = %d out of range", i, tw.Parent[i])
		}
	}
	return nil
}

// Path builds a linear pattern //l0 e1 l1 e2 l2 ... where edges[i] connects
// labels[i] to labels[i+1].
func Path(labels []string, edges []EdgeKind) (*Twig, error) {
	if len(labels) == 0 || len(edges) != len(labels)-1 {
		return nil, errors.New("twigjoin: Path requires len(edges) = len(labels)-1")
	}
	tw := &Twig{Labels: append([]string{}, labels...)}
	tw.Parent = make([]int, len(labels))
	tw.Edge = make([]EdgeKind, len(labels))
	tw.Parent[0] = -1
	tw.Edge[0] = DescendantEdge
	for i := 1; i < len(labels); i++ {
		tw.Parent[i] = i - 1
		tw.Edge[i] = edges[i-1]
	}
	return tw, nil
}

// String renders the twig in an XPath-like syntax with brackets for
// branches, e.g. "//a[/b]//c".
func (tw *Twig) String() string {
	children := make([][]int, len(tw.Labels))
	for i := 1; i < len(tw.Labels); i++ {
		children[tw.Parent[i]] = append(children[tw.Parent[i]], i)
	}
	var render func(i int) string
	render = func(i int) string {
		s := tw.Labels[i]
		kids := children[i]
		for j, c := range kids {
			part := tw.Edge[c].String() + render(c)
			if j < len(kids)-1 || len(kids) > 1 {
				s += "[" + part + "]"
			} else {
				s += part
			}
		}
		return s
	}
	return tw.Edge[0].String() + render(0)
}

// Match is one match of the pattern: Match[i] is the document node matched
// by pattern node i.
type Match []tree.NodeID

// ToCQ translates the twig into an equivalent conjunctive query whose head
// variables are all pattern nodes in order; used for cross-checking.
func (tw *Twig) ToCQ() *cq.Query {
	q := &cq.Query{}
	varOf := func(i int) cq.Variable { return cq.Variable(fmt.Sprintf("p%d", i)) }
	for i, l := range tw.Labels {
		if l != "*" {
			q.Labels = append(q.Labels, cq.LabelAtom{Var: varOf(i), Label: l})
		} else if i == 0 {
			q.Axes = append(q.Axes, cq.AxisAtom{Axis: tree.DescendantOrSelf, From: varOf(0), To: varOf(0)})
		}
		q.Head = append(q.Head, varOf(i))
	}
	for i := 1; i < len(tw.Labels); i++ {
		axis := tree.Child
		if tw.Edge[i] == DescendantEdge {
			axis = tree.Descendant
		}
		q.Axes = append(q.Axes, cq.AxisAtom{Axis: axis, From: varOf(tw.Parent[i]), To: varOf(i)})
	}
	return q
}

// NodeLister supplies shared per-label node streams so repeated matches over
// the same tree skip the per-call label scans.  Implementations must return
// document-ordered slices that are stable and safe for concurrent readers
// (this package never mutates them); package index provides one.
type NodeLister interface {
	// NodesWithLabel returns, in document order, the nodes carrying the label.
	NodesWithLabel(label string) []tree.NodeID
}

// streamsFor returns, per pattern node, the document nodes matching its
// label, in document (preorder) order -- the sorted "element streams" the
// holistic algorithms consume.  A non-nil NodeLister serves the streams from
// its cache.
func streamsFor(t *tree.Tree, tw *Twig, ix NodeLister) [][]tree.NodeID {
	out := make([][]tree.NodeID, len(tw.Labels))
	for i, l := range tw.Labels {
		if l == "*" {
			out[i] = t.Nodes()
		} else if ix != nil {
			out[i] = ix.NodesWithLabel(l)
		} else {
			out[i] = t.NodesWithLabel(l)
		}
	}
	return out
}

// MatchPath matches a linear pattern with the PathStack algorithm: the label
// streams are merged in document order; each pattern node keeps a stack of
// open candidate nodes linked to their parent-stack positions, and every
// node pushed onto the leaf's stack contributes matches that are enumerated
// by following the links.  Matches are returned sorted by the leaf node's
// preorder, then lexicographically.
func MatchPath(t *tree.Tree, tw *Twig) ([]Match, error) {
	return MatchPathIndexed(t, tw, nil)
}

// MatchPathIndexed is MatchPath with the label streams served by a shared
// index (may be nil, in which case the tree is scanned per call).
func MatchPathIndexed(t *tree.Tree, tw *Twig, ix NodeLister) ([]Match, error) {
	if err := tw.Validate(); err != nil {
		return nil, err
	}
	for i := 1; i < len(tw.Parent); i++ {
		if tw.Parent[i] != i-1 {
			return nil, errors.New("twigjoin: MatchPath requires a linear pattern")
		}
	}
	if tw.Edge[0] == ChildEdge {
		return nil, errors.New("twigjoin: MatchPath requires the pattern root to use a // edge")
	}
	k := len(tw.Labels)
	streams := streamsFor(t, tw, ix)
	pos := make([]int, k)

	type entry struct {
		node      tree.NodeID
		parentTop int // index into the parent's stack at push time (-1 for the root stream)
	}
	stacks := make([][]entry, k)
	var results []Match

	// enumerate emits every match ending at the entry just pushed on stack
	// level k-1.
	var emit func(level int, idx int, partial Match)
	emit = func(level int, idx int, partial Match) {
		e := stacks[level][idx]
		partial[level] = e.node
		if level == 0 {
			m := make(Match, k)
			copy(m, partial)
			results = append(results, m)
			return
		}
		// Any ancestor entry on the parent stack up to the recorded top can be
		// the parent match; for Child edges it must additionally be the actual
		// parent node.
		for j := 0; j <= e.parentTop; j++ {
			p := stacks[level-1][j]
			if tw.Edge[level] == ChildEdge && t.Parent(e.node) != p.node {
				continue
			}
			if tw.Edge[level] == DescendantEdge && p.node == e.node {
				// The same document node can appear on adjacent stacks when the
				// label streams overlap; a node is not its own descendant.
				continue
			}
			emit(level-1, j, partial)
		}
	}

	// Merge the streams in document order.
	for {
		// Pick the stream whose current node has the smallest preorder.
		best := -1
		for i := 0; i < k; i++ {
			if pos[i] >= len(streams[i]) {
				continue
			}
			if best == -1 || streams[i][pos[i]] < streams[best][pos[best]] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		n := streams[best][pos[best]]
		pos[best]++

		// Pop entries (on every stack) that are not ancestors of n: their
		// subtrees are closed, so they cannot participate in future matches.
		for i := 0; i < k; i++ {
			for len(stacks[i]) > 0 {
				top := stacks[i][len(stacks[i])-1]
				// Keep the entry while it is an ancestor-or-self of n (its region
				// is still open at n); DescendantOrSelf(top, n) expresses exactly
				// that.
				if t.Holds(tree.DescendantOrSelf, top.node, n) {
					break
				}
				stacks[i] = stacks[i][:len(stacks[i])-1]
			}
		}
		// Push n onto its stack if its parent stack is usable (non-root levels
		// need at least one open ancestor candidate on the parent stack).
		if best > 0 && len(stacks[best-1]) == 0 {
			continue
		}
		parentTop := -1
		if best > 0 {
			parentTop = len(stacks[best-1]) - 1
		}
		stacks[best] = append(stacks[best], entry{node: n, parentTop: parentTop})
		if best == k-1 {
			emit(k-1, len(stacks[k-1])-1, make(Match, k))
		}
	}
	sortMatches(t, results)
	return results, nil
}

// MatchTwig matches a general twig pattern holistically: the pattern is a
// tree-shaped conjunctive query whose every node is a head variable (ToCQ),
// which the interval-join kernel of package arccons answers in input plus
// output time — a full reducer over the pattern's edges, then a
// backtrack-free enumeration that never produces a duplicate.  Matches are
// returned sorted lexicographically.
func MatchTwig(t *tree.Tree, tw *Twig) ([]Match, error) {
	return MatchTwigIndexed(t, tw, nil)
}

// MatchTwigIndexed is MatchTwig with label masks and the preorder-rank view
// served by a shared index (package index provides one; with nil the tree is
// indexed for this call only).
func MatchTwigIndexed(t *tree.Tree, tw *Twig, ix arccons.LabelIndex) ([]Match, error) {
	if err := tw.Validate(); err != nil {
		return nil, err
	}
	if tw.Edge[0] == ChildEdge {
		return nil, errors.New("twigjoin: the pattern root must use a // edge")
	}
	answers, err := arccons.EnumerateAcyclicIndexed(tw.ToCQ(), t, ix)
	if err != nil {
		return nil, err
	}
	var matches []Match
	for _, a := range answers {
		matches = append(matches, Match(a))
	}
	return matches, nil
}

func sortMatches(t *tree.Tree, ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
