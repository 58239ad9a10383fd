// Package tree implements unranked, ordered, node-labeled finite trees --
// the data model of the paper "Processing Queries on Tree-Structured Data
// Efficiently" (Koch, PODS 2006), Section 2.
//
// A tree is stored in an arena: every node is identified by a NodeID and all
// per-node attributes live in parallel slices.  The package exposes
//
//   - the navigational relations (axes) Child, Child+, Child*, NextSibling,
//     NextSibling+, NextSibling*, Following and their inverses,
//   - the three total orders <pre, <post and <bflr of Section 2,
//   - the tau+ predicates Root, Leaf, FirstSibling, LastSibling and the
//     binary relations FirstChild and NextSibling used by monadic datalog
//     (Section 3),
//   - multiple labels per node (the tractability results of the paper allow
//     multi-labeled nodes).
//
// A node's NodeID is its preorder rank: Builder.Build numbers the nodes in
// document order whatever order they were added in, so a subtree is the
// contiguous NodeID interval [v, v+SubtreeSize(v)-1].  The tree stores only
// parent, subtree size, depth and the left-sibling link per node; the first
// child, the right sibling, <post and <bflr are arithmetic on them, and the
// children of a node are the subtrees that tile its interval.  Build computes
// the columns once, in O(n); afterwards every axis test is O(1) and every
// axis enumeration is linear in its output.
package tree

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node of a Tree.  NodeIDs are dense preorder ranks: a
// tree with n nodes uses the IDs 0..n-1, and NodeID v is the node with
// 1-based preorder index v+1, whatever order a Builder added the nodes in.
// InvalidNode is the zero of the "option" convention used throughout.
type NodeID int32

// InvalidNode is returned by navigation functions when the requested node
// does not exist (for example Parent of the root).
const InvalidNode NodeID = -1

// Tree is an immutable unranked ordered labeled tree.  Construct one with a
// Builder, by parsing an XML document (package xmldoc), or with one of the
// generators in package workload.
//
// The shape is stored as parent, size and depth (the pre|size|level encoding
// of an XPath accelerator) plus the left-sibling link; every other link,
// order and axis test is arithmetic on them.  A node's children tile
// [n+1, End(n)], so its first child is n+1 when it has one and the right
// sibling of n is End(n)+1 when that lies inside the parent's subtree.
type Tree struct {
	parent      []NodeID
	prevSibling []NodeID

	labels [][]string // each node may carry several labels
	text   []string   // optional textual content (ignored by Core XPath)

	// The int32 columns widen to int in the accessors: a depth or a size
	// never exceeds the node count.
	depth []int32 // root has depth 0
	size  []int32 // number of nodes in the subtree rooted at the node

	// Two whole-tree counts, kept so that a walk that skips nodes can still
	// report them: 1 + the maximum depth, and the nodes with text.
	height, textNodes int
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.parent) }

// Root returns the root node of the tree, or InvalidNode for an empty tree.
func (t *Tree) Root() NodeID {
	if t.Len() == 0 {
		return InvalidNode
	}
	return 0
}

// valid reports whether n is a node of t.
func (t *Tree) valid(n NodeID) bool { return n >= 0 && int(n) < t.Len() }

// Parent returns the parent of n, or InvalidNode if n is the root.
func (t *Tree) Parent(n NodeID) NodeID { return t.parent[n] }

// FirstChild returns the first (leftmost) child of n, or InvalidNode: the
// node right after n, when n's subtree has more than n.
func (t *Tree) FirstChild(n NodeID) NodeID {
	if t.size[n] == 1 {
		return InvalidNode
	}
	return n + 1
}

// NextSibling returns the right sibling of n, or InvalidNode: the node right
// after n's subtree, when that still lies in the parent's.
func (t *Tree) NextSibling(n NodeID) NodeID {
	if p := t.parent[n]; p != InvalidNode && t.End(n) < t.End(p) {
		return t.End(n) + 1
	}
	return InvalidNode
}

// PrevSibling returns the left sibling of n, or InvalidNode.
func (t *Tree) PrevSibling(n NodeID) NodeID { return t.prevSibling[n] }

// Labels returns the labels of n.  The returned slice must not be modified.
func (t *Tree) Labels(n NodeID) []string { return t.labels[n] }

// Label returns the first (primary) label of n, or "" if n is unlabeled.
func (t *Tree) Label(n NodeID) string {
	if len(t.labels[n]) == 0 {
		return ""
	}
	return t.labels[n][0]
}

// HasLabel reports whether Lab_a(n) holds, i.e. node n carries label a.
func (t *Tree) HasLabel(n NodeID, a string) bool {
	for _, l := range t.labels[n] {
		if l == a {
			return true
		}
	}
	return false
}

// Text returns the textual content attached to n ("" if none).
func (t *Tree) Text(n NodeID) string { return t.text[n] }

// Depth returns the depth of n; the root has depth 0.
func (t *Tree) Depth(n NodeID) int { return int(t.depth[n]) }

// Height returns the height of the tree: 1 + max depth.
func (t *Tree) Height() int { return t.height }

// TextNodes returns the number of nodes with textual content.
func (t *Tree) TextNodes() int { return t.textNodes }

// SubtreeSize returns the number of nodes in the subtree rooted at n
// (including n itself).
func (t *Tree) SubtreeSize(n NodeID) int { return int(t.size[n]) }

// End returns the last node of n's subtree in document order: the subtree
// of n is the NodeID interval [n, End(n)].
func (t *Tree) End(n NodeID) NodeID { return n + NodeID(t.size[n]) - 1 }

// Pre returns the 1-based preorder (document order) index of n: n + 1.
func (t *Tree) Pre(n NodeID) int { return int(n) + 1 }

// Post returns the 1-based postorder index of n.  The nodes before n in
// postorder are its n-depth(n) predecessors in document order that are not
// its ancestors, and its proper descendants: post(n) = n + size(n) - depth(n).
func (t *Tree) Post(n NodeID) int { return int(n) + int(t.size[n]) - int(t.depth[n]) }

// Nodes returns all nodes of the tree in document (pre-) order, that is
// 0..Len()-1.  Loops that need no slice range over NodeID(t.Len()) instead.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, t.Len())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}

// Children returns the children of n, left to right.
func (t *Tree) Children(n NodeID) []NodeID {
	var out []NodeID
	for c := n + 1; c <= t.End(n); c += NodeID(t.size[c]) {
		out = append(out, c)
	}
	return out
}

// NumChildren returns the number of children of n.
func (t *Tree) NumChildren(n NodeID) int {
	k := 0
	for c := n + 1; c <= t.End(n); c += NodeID(t.size[c]) {
		k++
	}
	return k
}

// IsRoot reports whether Root(n) holds.
func (t *Tree) IsRoot(n NodeID) bool { return t.parent[n] == InvalidNode }

// IsLeaf reports whether Leaf(n) holds.
func (t *Tree) IsLeaf(n NodeID) bool { return t.size[n] == 1 }

// IsFirstSibling reports whether FirstSibling(n) holds (n has no left sibling).
func (t *Tree) IsFirstSibling(n NodeID) bool { return t.prevSibling[n] == InvalidNode }

// IsLastSibling reports whether LastSibling(n) holds (n has no right sibling):
// n's subtree closes its parent's.
func (t *Tree) IsLastSibling(n NodeID) bool {
	p := t.parent[n]
	return p == InvalidNode || t.End(n) == t.End(p)
}

// IsFirstChildOf reports whether FirstChild(u, v) holds: v is the first child
// of u.
func (t *Tree) IsFirstChildOf(u, v NodeID) bool { return v == u+1 && t.size[u] > 1 }

// LabelAlphabet returns the sorted set of labels occurring in the tree.
func (t *Tree) LabelAlphabet() []string {
	set := map[string]bool{}
	for _, ls := range t.labels {
		for _, l := range ls {
			set[l] = true
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// NodesWithLabel returns, in document order, all nodes carrying label a.
func (t *Tree) NodesWithLabel(a string) []NodeID {
	var out []NodeID
	for n := range NodeID(t.Len()) {
		if t.HasLabel(n, a) {
			out = append(out, n)
		}
	}
	return out
}

// Builder incrementally constructs a Tree.  A node's parent must have been
// added before the node itself; otherwise nodes may come in any order — a
// child may be appended to any earlier node — and Build renumbers them into
// document order.  Until Build, a node is known by the construction ID its
// Add call returned; Final translates one into the built tree's NodeID.
type Builder struct {
	t    Tree
	open bool
	// final[id] is the built tree's NodeID of construction ID id; nil when
	// the nodes were added in document order (every parsed document), which
	// Build then keeps as it is.
	final []NodeID
	// arena is the label chunk being filled: every node's label slice is
	// carved off its end, capacity-clipped, so adding a node costs no
	// allocation of its own and a later AddLabel copies out instead of
	// running into the next node's labels.
	arena []string
	// reserved is the node count of the last Reserve, which sizes the label
	// chunks too.
	reserved int
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{open: true} }

// Reserve sizes the per-node columns for n nodes in total, so that adding
// them grows nothing.  A caller that knows the node count (or a tight upper
// bound on it) up front calls it once, before the first node; adding more
// than n nodes stays correct and falls back to amortized growth.
func (b *Builder) Reserve(n int) {
	t := &b.t
	more := n - len(t.parent)
	if more <= 0 {
		return
	}
	b.reserved = n
	t.parent = slices.Grow(t.parent, more)
	t.labels = slices.Grow(t.labels, more)
	t.text = slices.Grow(t.text, more)
}

// A reserved builder sizes each label chunk to the nodes still to come — one
// slot each, so a tree whose nodes average under two labels needs O(log n)
// chunks and keeps next to no slack; beyond (or without) a reservation chunks
// double from minLabelChunk to maxLabelChunk strings.
const (
	minLabelChunk = 16
	maxLabelChunk = 4096
)

// carve copies labels into the arena and returns the copy.
func (b *Builder) carve(labels []string) []string {
	k := len(labels)
	if k == 0 {
		return []string{}
	}
	if len(b.arena)+k > cap(b.arena) {
		size := b.reserved - len(b.t.parent)
		if size <= 0 {
			size = min(2*cap(b.arena), maxLabelChunk)
		}
		b.arena = make([]string, 0, max(size, minLabelChunk, k))
	}
	start := len(b.arena)
	b.arena = append(b.arena, labels...)
	return b.arena[start:len(b.arena):len(b.arena)]
}

// AddRoot adds the root node and returns its id.  It must be the first node
// added.
func (b *Builder) AddRoot(labels ...string) NodeID {
	return b.add(InvalidNode, labels)
}

// AddChild adds a new rightmost child of parent and returns its id.
func (b *Builder) AddChild(parent NodeID, labels ...string) NodeID {
	return b.add(parent, labels)
}

func (b *Builder) add(parent NodeID, labels []string) NodeID {
	if !b.open {
		panic("tree: Builder used after Build")
	}
	t := &b.t
	id := NodeID(len(t.parent))
	if parent == InvalidNode && id != 0 {
		panic("tree: a tree has exactly one root; AddRoot called twice")
	}
	if parent != InvalidNode && !t.valid(parent) {
		panic(fmt.Sprintf("tree: AddChild of unknown parent %d", parent))
	}
	ls := b.carve(labels)
	t.parent = append(t.parent, parent)
	t.labels = append(t.labels, ls)
	t.text = append(t.text, "")
	return id
}

// AddLabel attaches an additional label to an existing node.
func (b *Builder) AddLabel(n NodeID, label string) {
	if !b.open {
		panic("tree: Builder used after Build")
	}
	if !b.t.valid(n) {
		panic(fmt.Sprintf("tree: AddLabel of unknown node %d", n))
	}
	b.t.labels[n] = append(b.t.labels[n], label)
}

// SetText attaches textual content to an existing node.
func (b *Builder) SetText(n NodeID, text string) {
	if !b.open {
		panic("tree: Builder used after Build")
	}
	if !b.t.valid(n) {
		panic(fmt.Sprintf("tree: SetText of unknown node %d", n))
	}
	b.t.text[n] = text
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return len(b.t.parent) }

// Build freezes the builder, renumbers the nodes into document order,
// computes the size, depth and left-sibling columns and returns the tree.
// Build returns an error for the empty tree (a tree has at least one node).
func (b *Builder) Build() (*Tree, error) {
	if !b.open {
		return nil, errors.New("tree: Build called twice")
	}
	if len(b.t.parent) == 0 {
		return nil, errors.New("tree: cannot build an empty tree")
	}
	b.open = false
	t := &b.t
	n := t.Len()
	cols := make([]int32, 2*n) // one allocation, two columns
	t.depth, t.size = cols[:n:n], cols[n:]
	b.rank()
	t.index()
	return t, nil
}

// Final returns the NodeID, in the built tree, of the node whose construction
// ID is id.  It is the identity until Build, and after it when the nodes were
// added in document order.
func (b *Builder) Final(id NodeID) NodeID {
	if b.final == nil {
		return id
	}
	return b.final[id]
}

// rank fills the size column and makes construction IDs preorder ranks.  A
// parent is added before its children, so one backward sweep sums the
// subtree sizes, and one forward sweep hands each node the next free rank of
// its parent's interval: a parent's children take consecutive intervals in
// the order they were added.  Nodes added in document order already hold
// their ranks and stay in place; otherwise parent, size, labels and text move
// to the ranks, which Final then answers from.
func (b *Builder) rank() {
	t := &b.t
	n := NodeID(t.Len())
	for v := n - 1; v > 0; v-- {
		t.size[v]++
		t.size[t.parent[v]] += t.size[v]
	}
	t.size[0]++
	next := t.depth // free until index fills it: next[v] is the rank v's next child takes
	next[0] = 1
	for v := NodeID(1); v < n; v++ {
		p := t.parent[v]
		r := NodeID(next[p])
		next[p] += t.size[v]
		next[v] = int32(r) + 1
		if r != v && b.final == nil { // the first node out of document order
			b.final = make([]NodeID, n)
			for u := range v {
				b.final[u] = u
			}
		}
		if b.final != nil {
			b.final[v] = r
		}
	}
	if b.final == nil {
		return
	}
	final := b.final
	t.parent = permute(t.parent, final)
	for v, p := range t.parent {
		if p != InvalidNode {
			t.parent[v] = final[p]
		}
	}
	t.size = permute(t.size, final)
	t.labels = permute(t.labels, final)
	t.text = permute(t.text, final)
}

// permute returns col with entry v moved to position final[v].
func permute[E any](col []E, final []NodeID) []E {
	out := make([]E, len(col))
	for v, x := range col {
		out[final[v]] = x
	}
	return out
}

// MustBuild is like Build but panics on error; intended for tests and
// examples with statically known shapes.
func (b *Builder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// index fills depth, prevSibling, the height and the text-node count in one
// forward sweep over a tree numbered in preorder, without recursion (trees
// may be deep): a parent precedes its children, and the right sibling of u
// is End(u)+1 when that node shares u's parent.
func (t *Tree) index() {
	n := NodeID(t.Len())
	t.prevSibling = make([]NodeID, n)
	for v := range t.prevSibling {
		t.prevSibling[v] = InvalidNode
	}
	t.depth[0] = 0
	t.height = 1
	for u := range n {
		if p := t.parent[u]; p != InvalidNode {
			t.depth[u] = t.depth[p] + 1
			t.height = max(t.height, int(t.depth[u])+1)
		}
		if s := t.End(u) + 1; s < n && t.parent[s] == t.parent[u] {
			t.prevSibling[s] = u
		}
		if t.text[u] != "" {
			t.textNodes++
		}
	}
}

// String renders the tree as a single-line nested-parenthesis expression,
// e.g. "a(b(a c) a(b d))" for the tree of Figure 2 of the paper.
func (t *Tree) String() string {
	var sb strings.Builder
	t.writeNode(&sb, t.Root())
	return sb.String()
}

func (t *Tree) writeNode(sb *strings.Builder, n NodeID) {
	if len(t.labels[n]) == 0 {
		sb.WriteString("_")
	} else {
		sb.WriteString(strings.Join(t.labels[n], "+"))
	}
	if t.size[n] == 1 {
		return
	}
	sb.WriteString("(")
	for c := n + 1; c <= t.End(n); c += NodeID(t.size[c]) {
		if c > n+1 {
			sb.WriteString(" ")
		}
		t.writeNode(sb, c)
	}
	sb.WriteString(")")
}

// Indented renders the tree as an indented multi-line listing showing, for
// every node, its label(s), preorder and postorder index -- the format used
// in Figure 2 (a) of the paper ("pre:post:label").
func (t *Tree) Indented() string {
	var sb strings.Builder
	for n := range NodeID(t.Len()) {
		sb.WriteString(strings.Repeat("  ", int(t.depth[n])))
		fmt.Fprintf(&sb, "%d:%d:%s\n", t.Pre(n), t.Post(n), t.Label(n))
	}
	return sb.String()
}

// DOT renders the tree in Graphviz dot syntax (child edges solid, next-sibling
// edges dashed), mirroring Figure 1 (b) of the paper.
func (t *Tree) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph tree {\n  node [shape=circle];\n")
	for n := range NodeID(t.Len()) {
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n, t.Label(n))
	}
	for n := range NodeID(t.Len()) {
		if fc := t.FirstChild(n); fc != InvalidNode {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"FirstChild\"];\n", n, fc)
		}
		if ns := t.NextSibling(n); ns != InvalidNode {
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed, label=\"NextSibling\"];\n", n, ns)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// ParseSexpr parses the nested-parenthesis syntax emitted by String:
//
//	tree    := label [ "(" tree { " " tree } ")" ]
//	label   := one or more labels joined by "+", or "_" for no label
//
// Example: "a(b(a c) a(b d))".  Nesting deeper than maxSexprDepth is an
// error.
func ParseSexpr(s string) (*Tree, error) {
	p := &sexprParser{input: s}
	b := NewBuilder()
	p.skipSpace()
	if err := p.parseNode(b, InvalidNode); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("tree: trailing input at offset %d", p.pos)
	}
	return b.Build()
}

// MustParseSexpr is like ParseSexpr but panics on error.
func MustParseSexpr(s string) *Tree {
	t, err := ParseSexpr(s)
	if err != nil {
		panic(err)
	}
	return t
}

type sexprParser struct {
	input string
	pos   int
	depth int
}

// maxSexprDepth bounds parser recursion: similarity patterns arrive as
// request text, and a long enough run of "a(" would otherwise overflow the
// goroutine stack — a fatal error no recover can catch.
const maxSexprDepth = 1000

func (p *sexprParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *sexprParser) parseNode(b *Builder, parent NodeID) error {
	if p.depth++; p.depth > maxSexprDepth {
		return fmt.Errorf("tree: nested deeper than %d at offset %d", maxSexprDepth, p.pos)
	}
	defer func() { p.depth-- }()
	start := p.pos
	for p.pos < len(p.input) && !strings.ContainsRune("() \t\n", rune(p.input[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return fmt.Errorf("tree: expected label at offset %d", p.pos)
	}
	labelText := p.input[start:p.pos]
	var labels []string
	if labelText != "_" {
		labels = strings.Split(labelText, "+")
	}
	var id NodeID
	if parent == InvalidNode {
		id = b.AddRoot(labels...)
	} else {
		id = b.AddChild(parent, labels...)
	}
	p.skipSpace()
	if p.pos < len(p.input) && p.input[p.pos] == '(' {
		p.pos++ // consume '('
		for {
			p.skipSpace()
			if p.pos >= len(p.input) {
				return errors.New("tree: unterminated '('")
			}
			if p.input[p.pos] == ')' {
				p.pos++
				break
			}
			if err := p.parseNode(b, id); err != nil {
				return err
			}
		}
	}
	return nil
}
