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
// contiguous NodeID interval [v, v+SubtreeSize(v)-1] and the navigation
// columns themselves are the rank-space view the set-at-a-time evaluators
// read (Image).  All index computations are performed once, when
// Builder.Build freezes the tree; afterwards every axis test is O(1) and
// every axis enumeration is linear in its output.
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
type Tree struct {
	parent      []NodeID
	firstChild  []NodeID
	lastChild   []NodeID
	nextSibling []NodeID
	prevSibling []NodeID

	labels [][]string // each node may carry several labels
	text   []string   // optional textual content (ignored by Core XPath)

	// The order columns are int32 like NodeID: an index or a size never
	// exceeds the node count.  The accessors widen to int.  The preorder
	// index needs no column: it is the NodeID plus one.
	post  []int32 // 1-based postorder index (<post)
	bflr  []int32 // 1-based breadth-first left-to-right index (<bflr)
	depth []int32 // root has depth 0
	size  []int32 // number of nodes in the subtree rooted at the node

	// Two whole-tree counts, kept so that a walk that skips nodes can still
	// report them: 1 + the maximum depth, and the nodes with text.
	height, textNodes int

	byPost []NodeID // byPost[i-1] = node with postorder index i
	byBFLR []NodeID // byBFLR[i-1] = node with bflr index i
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

// FirstChild returns the first (leftmost) child of n, or InvalidNode.
func (t *Tree) FirstChild(n NodeID) NodeID { return t.firstChild[n] }

// LastChild returns the last (rightmost) child of n, or InvalidNode.
func (t *Tree) LastChild(n NodeID) NodeID { return t.lastChild[n] }

// NextSibling returns the right sibling of n, or InvalidNode.
func (t *Tree) NextSibling(n NodeID) NodeID { return t.nextSibling[n] }

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

// Post returns the 1-based postorder index of n.
func (t *Tree) Post(n NodeID) int { return int(t.post[n]) }

// BFLR returns the 1-based breadth-first left-to-right index of n.
func (t *Tree) BFLR(n NodeID) int { return int(t.bflr[n]) }

// NodeAtPost returns the node with postorder index i (1-based), or InvalidNode.
func (t *Tree) NodeAtPost(i int) NodeID {
	if i < 1 || i > t.Len() {
		return InvalidNode
	}
	return t.byPost[i-1]
}

// NodeAtBFLR returns the node with bflr index i (1-based), or InvalidNode.
func (t *Tree) NodeAtBFLR(i int) NodeID {
	if i < 1 || i > t.Len() {
		return InvalidNode
	}
	return t.byBFLR[i-1]
}

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
	for c := t.firstChild[n]; c != InvalidNode; c = t.nextSibling[c] {
		out = append(out, c)
	}
	return out
}

// NumChildren returns the number of children of n.
func (t *Tree) NumChildren(n NodeID) int {
	k := 0
	for c := t.firstChild[n]; c != InvalidNode; c = t.nextSibling[c] {
		k++
	}
	return k
}

// IsRoot reports whether Root(n) holds.
func (t *Tree) IsRoot(n NodeID) bool { return t.parent[n] == InvalidNode }

// IsLeaf reports whether Leaf(n) holds.
func (t *Tree) IsLeaf(n NodeID) bool { return t.firstChild[n] == InvalidNode }

// IsFirstSibling reports whether FirstSibling(n) holds (n has no left sibling).
func (t *Tree) IsFirstSibling(n NodeID) bool { return t.prevSibling[n] == InvalidNode }

// IsLastSibling reports whether LastSibling(n) holds (n has no right sibling).
func (t *Tree) IsLastSibling(n NodeID) bool { return t.nextSibling[n] == InvalidNode }

// IsFirstChildOf reports whether FirstChild(u, v) holds: v is the first child
// of u.
func (t *Tree) IsFirstChildOf(u, v NodeID) bool { return t.firstChild[u] == v && v != InvalidNode }

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
	t.firstChild = slices.Grow(t.firstChild, more)
	t.lastChild = slices.Grow(t.lastChild, more)
	t.nextSibling = slices.Grow(t.nextSibling, more)
	t.prevSibling = slices.Grow(t.prevSibling, more)
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
	t.firstChild = append(t.firstChild, InvalidNode)
	t.lastChild = append(t.lastChild, InvalidNode)
	t.nextSibling = append(t.nextSibling, InvalidNode)
	t.prevSibling = append(t.prevSibling, InvalidNode)
	t.labels = append(t.labels, ls)
	t.text = append(t.text, "")
	if parent != InvalidNode {
		if t.lastChild[parent] == InvalidNode {
			t.firstChild[parent] = id
		} else {
			prev := t.lastChild[parent]
			t.nextSibling[prev] = id
			t.prevSibling[id] = prev
		}
		t.lastChild[parent] = id
	}
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
// computes all orders and indexes and returns the tree.  Build returns an
// error for the empty tree (a tree has at least one node).
func (b *Builder) Build() (*Tree, error) {
	if !b.open {
		return nil, errors.New("tree: Build called twice")
	}
	if len(b.t.parent) == 0 {
		return nil, errors.New("tree: cannot build an empty tree")
	}
	b.open = false
	b.renumber()
	t := &b.t
	t.computeOrders()
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

// nextInPreorder returns the node after v in document order, or InvalidNode:
// v's first child, else the next sibling of v's nearest ancestor-or-self
// that has one.
func (t *Tree) nextInPreorder(v NodeID) NodeID {
	if c := t.firstChild[v]; c != InvalidNode {
		return c
	}
	for ; v != InvalidNode; v = t.parent[v] {
		if s := t.nextSibling[v]; s != InvalidNode {
			return s
		}
	}
	return InvalidNode
}

// renumber makes construction IDs preorder ranks.  Nodes added in document
// order already are, and are left in place after one walk; otherwise every
// column moves to the node's rank, and every link is rewritten through the
// same permutation, which Final then answers from.
func (b *Builder) renumber() {
	t := &b.t
	rank := NodeID(0)
	for v := t.Root(); v != InvalidNode && v == rank; v = t.nextInPreorder(v) {
		rank++
	}
	if int(rank) == t.Len() {
		return
	}
	final := make([]NodeID, t.Len())
	rank = 0
	for v := t.Root(); v != InvalidNode; v = t.nextInPreorder(v) {
		final[v] = rank
		rank++
	}
	for _, col := range []*[]NodeID{&t.parent, &t.firstChild, &t.lastChild, &t.nextSibling, &t.prevSibling} {
		*col = permute(*col, final)
		for i, x := range *col {
			if x != InvalidNode {
				(*col)[i] = final[x]
			}
		}
	}
	t.labels = permute(t.labels, final)
	t.text = permute(t.text, final)
	b.final = final
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

// computeOrders fills post, bflr, depth, size, the reverse index slices,
// the height and the text-node count in O(n) on a tree numbered in
// preorder, without recursion (trees may be deep): a parent precedes its
// children, so depth is one forward sweep and size one backward sweep, and
// the nodes of post index at most post(v) are v's pre(v)-1-depth(v)
// predecessors that are not its ancestors plus its subtree, so
// post(v) = pre(v) + size(v) - depth(v) - 1.
func (t *Tree) computeOrders() {
	n := t.Len()
	cols := make([]int32, 4*n) // one allocation, four columns
	t.post, t.bflr, t.depth, t.size = cols[:n:n], cols[n:2*n:2*n], cols[2*n:3*n:3*n], cols[3*n:]
	t.byPost = make([]NodeID, n)
	t.byBFLR = make([]NodeID, n)

	t.height = 1
	for v := NodeID(1); int(v) < n; v++ {
		t.depth[v] = t.depth[t.parent[v]] + 1
		t.height = max(t.height, int(t.depth[v])+1)
	}
	for _, txt := range t.text {
		if txt != "" {
			t.textNodes++
		}
	}
	for v := NodeID(n - 1); v >= 0; v-- {
		t.size[v]++
		if p := t.parent[v]; p != InvalidNode {
			t.size[p] += t.size[v]
		}
		t.post[v] = int32(v) + t.size[v] - t.depth[v]
		t.byPost[t.post[v]-1] = v
	}

	// Breadth-first left-to-right order: byBFLR is its own queue.
	t.byBFLR[0] = t.Root()
	next := 1
	for i, u := range t.byBFLR {
		t.bflr[u] = int32(i + 1)
		for c := t.firstChild[u]; c != InvalidNode; c = t.nextSibling[c] {
			t.byBFLR[next] = c
			next++
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
	if t.firstChild[n] == InvalidNode {
		return
	}
	sb.WriteString("(")
	first := true
	for c := t.firstChild[n]; c != InvalidNode; c = t.nextSibling[c] {
		if !first {
			sb.WriteString(" ")
		}
		first = false
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
		fmt.Fprintf(&sb, "%d:%d:%s\n", t.Pre(n), t.post[n], t.Label(n))
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
		if fc := t.firstChild[n]; fc != InvalidNode {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"FirstChild\"];\n", n, fc)
		}
		if ns := t.nextSibling[n]; ns != InvalidNode {
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
