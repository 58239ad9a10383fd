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
//     multi-labeled nodes), drawn from the integers: each label is a code of
//     the tree's Dict, so a label test compares integers.
//
// A node's NodeID is its preorder rank: a Preorder takes the nodes in
// document order, as a parser reads them, and Builder.Build numbers the
// nodes in document order whatever order they were added in, so a subtree
// is the contiguous NodeID interval [v, v+SubtreeSize(v)-1].  Beside the
// label codes and the text the tree stores only parent, subtree size, depth
// and the left-sibling link per node; the first child, the right sibling,
// <post and <bflr are arithmetic on them, and the children of a node are
// the subtrees that tile its interval.  Either constructor computes the
// columns once, in O(n); afterwards every axis test is O(1) and every axis
// enumeration is linear in its output.
package tree

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitset"
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
//
// Labels are integer codes of the tree's Dict and text is one string; both
// are laid out in preorder behind offset columns, so no column holds a
// pointer per node.
type Tree struct {
	parent      []NodeID
	prevSibling []NodeID

	// The int32 columns widen to int in the accessors: a depth or a size
	// never exceeds the node count.
	depth []int32 // root has depth 0
	size  []int32 // number of nodes in the subtree rooted at the node

	// labelCode[labelOff[n]:labelOff[n+1]] are the codes of n's labels in
	// dict, primary label first; each node may carry several.
	labelOff  []int32
	labelCode []Code
	dict      *Dict

	// text[textOff[n]:textOff[n+1]] is n's textual content (ignored by Core
	// XPath).
	text    string
	textOff []int32

	// Whole-tree counts: 1 + the maximum depth, and the distinct labels the
	// nodes carry.
	height, alphabet int
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

// Columns is a read-only view of a tree's preorder columns, for comparing
// trees in bulk rather than node by node.  Node v's labels are
// LabelCode[LabelOff[v]:LabelOff[v+1]] and its text is
// Text[TextOff[v]:TextOff[v+1]]; both offset columns have Len()+1 entries.
// The slices are the tree's own and must not be modified.
type Columns struct {
	Parent    []NodeID
	LabelOff  []int32
	LabelCode []Code
	TextOff   []int32
	Text      string
}

// Columns returns the tree's columns.
func (t *Tree) Columns() Columns {
	return Columns{Parent: t.parent, LabelOff: t.labelOff, LabelCode: t.labelCode, TextOff: t.textOff, Text: t.text}
}

// Dict returns the dictionary the tree's label codes are drawn from.  It may
// hold names no node of the tree carries.
func (t *Tree) Dict() *Dict { return t.dict }

// NextDict returns the dictionary the next version of the tree should be
// parsed against: the tree's own, so that codes stay stable across versions,
// unless it holds more than twice the labels the tree carries — then nil, a
// fresh start, so that a run of relabels cannot grow it without bound.
func (t *Tree) NextDict() *Dict {
	if t.dict.Len() > 2*t.alphabet {
		return nil
	}
	return t.dict
}

// LabelCodes returns the codes of n's labels, primary label first.  The
// returned slice is shared and must not be modified.
func (t *Tree) LabelCodes(n NodeID) []Code {
	return t.labelCode[t.labelOff[n]:t.labelOff[n+1]:t.labelOff[n+1]]
}

// HasCode reports whether node n carries the label of code c.
func (t *Tree) HasCode(n NodeID, c Code) bool {
	for _, l := range t.LabelCodes(n) {
		if l == c {
			return true
		}
	}
	return false
}

// HasCodes reports whether node n carries the label of every code in codes.
func (t *Tree) HasCodes(n NodeID, codes []Code) bool {
	for _, c := range codes {
		if !t.HasCode(n, c) {
			return false
		}
	}
	return true
}

// Labels returns the names of n's labels in a new slice.  It allocates; label
// tests resolve a name once with Dict().Code and compare codes instead.
func (t *Tree) Labels(n NodeID) []string {
	codes := t.LabelCodes(n)
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = t.dict.Name(c)
	}
	return out
}

// Label returns the first (primary) label of n, or "" if n is unlabeled.
func (t *Tree) Label(n NodeID) string {
	if t.labelOff[n] == t.labelOff[n+1] {
		return ""
	}
	return t.dict.Name(t.labelCode[t.labelOff[n]])
}

// HasLabel reports whether Lab_a(n) holds, i.e. node n carries label a.  It
// looks a up in the dictionary on every call; loops over nodes resolve the
// code once and call HasCode.
func (t *Tree) HasLabel(n NodeID, a string) bool { return t.HasCode(n, t.dict.Code(a)) }

// Text returns the textual content attached to n ("" if none).
func (t *Tree) Text(n NodeID) string { return t.text[t.textOff[n]:t.textOff[n+1]] }

// Depth returns the depth of n; the root has depth 0.
func (t *Tree) Depth(n NodeID) int { return int(t.depth[n]) }

// Height returns the height of the tree: 1 + max depth.
func (t *Tree) Height() int { return t.height }

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

// LabelAlphabet returns the sorted set of labels occurring in the tree.
func (t *Tree) LabelAlphabet() []string {
	seen := make([]bool, t.dict.Len())
	out := make([]string, 0, t.alphabet)
	for _, c := range t.labelCode {
		if !seen[c] {
			seen[c] = true
			out = append(out, t.dict.Name(c))
		}
	}
	sort.Strings(out)
	return out
}

// NodesWithLabel returns, in document order, all nodes carrying label a.
func (t *Tree) NodesWithLabel(a string) []NodeID { return t.NodesWithCode(t.dict.Code(a)) }

// MarkCode sets in out the bit of every node that carries the label of code
// c, in one pass over the code column; NoCode marks nothing.
func (t *Tree) MarkCode(c Code, out bitset.Bits) {
	n := 0
	for i, l := range t.labelCode {
		if l == c {
			for int(t.labelOff[n+1]) <= i {
				n++
			}
			out.Set(n)
		}
	}
}

// NodesWithCode returns, in document order, all nodes carrying the label of
// code c.
func (t *Tree) NodesWithCode(c Code) []NodeID {
	if c == NoCode {
		return nil
	}
	var out []NodeID
	for n := range NodeID(t.Len()) {
		if t.HasCode(n, c) {
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
// Nodes that arrive in document order, as a parser reads them, build faster
// through a Preorder.
//
// Labels are given as names (AddRoot, AddChild, AddLabel) or as codes of the
// builder's dictionary (Code, AddCoded, AddCode); the built tree shares that
// dictionary.
type Builder struct {
	coder
	open bool
	// final[id] is the built tree's NodeID of construction ID id; nil when
	// the nodes were added in document order, which Build then keeps as it
	// is.
	final []NodeID
	// Until Build, node v's labels are t.labelCode[t.labelOff[v]:labelEnd[v]]
	// and its text is textBuf[textAt[v]:textEnd[v]].  A node's run is extended
	// in place while it ends its column and moved to the end otherwise, so
	// Build lays both columns out in preorder.  labelEnd is nil until a label
	// run first moves: before that, each run ends where the next one starts.
	labelEnd        []int32
	textBuf         []byte
	textAt, textEnd []int32
}

// coder holds a tree under construction and codes its labels in the tree's
// dictionary: a Builder and a Preorder both embed one.
type coder struct {
	t Tree
	// owned reports that t.dict is this constructor's own, which it may
	// extend; an inherited dictionary is copied before the first name it
	// lacks.
	owned bool
	// next is one past the highest code met so far.  A document parsed
	// against the dictionary of an earlier version of itself meets the first
	// occurrences of its labels in the order that version coded them, so a
	// name not met yet is likely code next: comparing one name is cheaper
	// than hashing it.
	next Code
}

// init starts the dictionary: d shared, or a fresh one when d is nil.
func (c *coder) init(d *Dict) {
	if d == nil {
		c.t.dict, c.owned = NewDict(), true
	} else {
		c.t.dict = d
	}
}

// NewBuilder returns an empty Builder with a fresh dictionary.
func NewBuilder() *Builder { return NewBuilderDict(nil) }

// NewBuilderDict returns an empty Builder that draws codes from d, the
// dictionary of an earlier tree (nil for a fresh one).  Names d holds keep
// their codes; d itself is never written.
func NewBuilderDict(d *Dict) *Builder {
	b := &Builder{open: true}
	b.init(d)
	return b
}

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
	t.parent = slices.Grow(t.parent, more)
	// One more offset than nodes: Build appends the closing one.
	t.labelOff = slices.Grow(t.labelOff, more+1)
	t.labelCode = slices.Grow(t.labelCode, more)
	b.textAt = slices.Grow(b.textAt, more)
	b.textEnd = slices.Grow(b.textEnd, more)
}

// Code returns the code of the label name, adding it to the tree's
// dictionary when it is new.  The dictionary keeps a copy of a new name, so
// the tree never holds on to the caller's string.
func (c *coder) Code(name string) Code {
	code := c.next
	if !named(c.t.dict, code, name) {
		h := maphash.String(seed, name)
		if code = lookup(c.t.dict, h, name); code == NoCode {
			code = add(c.own(), h, name)
		}
	}
	c.next = max(c.next, code+1)
	return code
}

// CodeBytes is Code for a name in a byte slice, which may be reused after
// the call.
func (c *coder) CodeBytes(name []byte) Code {
	code := c.next
	if !named(c.t.dict, code, name) {
		h := maphash.Bytes(seed, name)
		if code = lookup(c.t.dict, h, name); code == NoCode {
			code = add(c.own(), h, name)
		}
	}
	c.next = max(c.next, code+1)
	return code
}

// own returns the tree's dictionary, copying an inherited one first.
func (c *coder) own() *Dict {
	if !c.owned {
		c.t.dict, c.owned = c.t.dict.clone(), true
	}
	return c.t.dict
}

// AddRoot adds the root node and returns its id.  It must be the first node
// added.
func (b *Builder) AddRoot(labels ...string) NodeID {
	id := b.AddCoded(InvalidNode)
	for _, l := range labels {
		b.AddCode(id, b.Code(l))
	}
	return id
}

// AddChild adds a new rightmost child of parent and returns its id.
func (b *Builder) AddChild(parent NodeID, labels ...string) NodeID {
	id := b.AddCoded(parent)
	for _, l := range labels {
		b.AddCode(id, b.Code(l))
	}
	return id
}

// AddCoded adds a node with the labels of the given codes (from Code) and
// returns its id: the root when parent is InvalidNode, which must then be
// the first node added, and otherwise a new rightmost child of parent.
func (b *Builder) AddCoded(parent NodeID, codes ...Code) NodeID {
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
	t.parent = append(t.parent, parent)
	t.labelOff = append(t.labelOff, int32(len(t.labelCode)))
	for _, c := range codes {
		if c < 0 || int(c) >= t.dict.Len() {
			panic(fmt.Sprintf("tree: label code %d not in the dictionary", c))
		}
		t.labelCode = append(t.labelCode, c)
	}
	if b.labelEnd != nil {
		b.labelEnd = append(b.labelEnd, int32(len(t.labelCode)))
	}
	b.textAt = append(b.textAt, 0)
	b.textEnd = append(b.textEnd, 0)
	return id
}

// ends returns labelEnd, first deriving it from the offsets when no run has
// moved yet: then the runs tile the column in construction order.
func (b *Builder) ends() []int32 {
	if b.labelEnd == nil {
		t := &b.t
		n := len(t.parent)
		b.labelEnd = make([]int32, n, cap(t.parent))
		copy(b.labelEnd, t.labelOff[1:])
		b.labelEnd[n-1] = int32(len(t.labelCode))
	}
	return b.labelEnd
}

// check panics unless n is a node added so far.
func (b *Builder) check(n NodeID, what string) {
	if !b.open {
		panic("tree: Builder used after Build")
	}
	if !b.t.valid(n) {
		panic(fmt.Sprintf("tree: %s %d", what, n))
	}
}

// AddLabel attaches an additional label to an existing node.
func (b *Builder) AddLabel(n NodeID, label string) {
	b.check(n, "AddLabel of unknown node")
	b.AddCode(n, b.Code(label))
}

// AddCode attaches an additional label, by its code, to an existing node.
func (b *Builder) AddCode(n NodeID, c Code) {
	b.check(n, "AddLabel of unknown node")
	t := &b.t
	if c < 0 || int(c) >= t.dict.Len() {
		panic(fmt.Sprintf("tree: label code %d not in the dictionary", c))
	}
	if int(n) == len(t.parent)-1 && b.labelEnd == nil {
		t.labelCode = append(t.labelCode, c)
		return
	}
	end := b.ends()
	if int(end[n]) != len(t.labelCode) {
		// Another node's labels follow n's: move n's run to the end.
		start := len(t.labelCode)
		t.labelCode = append(t.labelCode, t.labelCode[t.labelOff[n]:end[n]]...)
		t.labelOff[n] = int32(start)
	}
	t.labelCode = append(t.labelCode, c)
	end[n] = int32(len(t.labelCode))
}

// SetText attaches textual content to an existing node, replacing any.
func (b *Builder) SetText(n NodeID, text string) {
	b.check(n, "SetText of unknown node")
	b.textAt[n], b.textEnd[n] = 0, 0
	b.AppendText(n, text)
}

// AppendText appends s to the textual content of an existing node.
func (b *Builder) AppendText(n NodeID, s string) {
	b.check(n, "SetText of unknown node")
	b.moveText(n)
	b.textBuf = append(b.textBuf, s...)
	b.textEnd[n] = int32(len(b.textBuf))
}

// moveText makes n's text run end the text buffer, so that appending extends
// it: a run some other text follows is copied to the end first.
func (b *Builder) moveText(n NodeID) {
	at, end := b.textAt[n], b.textEnd[n]
	if at == end {
		b.textAt[n], b.textEnd[n] = int32(len(b.textBuf)), int32(len(b.textBuf))
		return
	}
	if int(end) != len(b.textBuf) {
		b.textAt[n] = int32(len(b.textBuf))
		b.textBuf = append(b.textBuf, b.textBuf[at:end]...)
		b.textEnd[n] = int32(len(b.textBuf))
	}
}

// Len returns the number of nodes added so far.
func (b *Builder) Len() int { return len(b.t.parent) }

// Build freezes the builder, renumbers the nodes into document order, lays
// the label and text columns out in preorder, computes the size, depth and
// left-sibling columns and returns the tree.  Build returns an error for the
// empty tree (a tree has at least one node).
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
	b.layout()
	t.finish(t.index(), b.owned)
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
// their ranks and stay in place; otherwise parent, size and the label and
// text runs move to the ranks, which Final then answers from.
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
	t.labelOff, b.labelEnd = permute(t.labelOff, final), permute(b.ends(), final)
	b.textAt = permute(b.textAt, final)
	b.textEnd = permute(b.textEnd, final)
}

// permute returns col with entry v moved to position final[v].
func permute[E any](col []E, final []NodeID) []E {
	out := make([]E, len(col))
	for v, x := range col {
		out[final[v]] = x
	}
	return out
}

// layout closes the label offsets, compacting the label runs into preorder
// when some run moved or the nodes were renumbered, and copies the text runs
// into one string in preorder.
func (b *Builder) layout() {
	t := &b.t
	n := t.Len()
	if b.labelEnd == nil {
		t.labelOff = trim(append(t.labelOff, int32(len(t.labelCode))))
		t.labelCode = trim(t.labelCode)
	} else {
		off := make([]int32, n+1)
		codes := make([]Code, 0, len(t.labelCode))
		for v := range n {
			off[v] = int32(len(codes))
			codes = append(codes, t.labelCode[t.labelOff[v]:b.labelEnd[v]]...)
		}
		off[n] = int32(len(codes))
		t.labelOff, t.labelCode = off, codes
	}

	// Nodes added in document order, each with its text before its first
	// child's, append their text in preorder, run after run: then the buffer
	// is the text as it stands.
	t.textOff = make([]int32, n+1)
	inOrder, size := true, int32(0)
	for v := range n {
		t.textOff[v] = size
		if at, end := b.textAt[v], b.textEnd[v]; at != end {
			inOrder = inOrder && at == size
			size += end - at
		}
	}
	t.textOff[n] = size
	if inOrder {
		t.text = string(b.textBuf[:size])
	} else {
		var sb strings.Builder
		sb.Grow(int(size))
		for v := range n {
			sb.Write(b.textBuf[b.textAt[v]:b.textEnd[v]])
		}
		t.text = sb.String()
	}
	t.parent = trim(t.parent)
	b.labelEnd, b.textBuf, b.textAt, b.textEnd = nil, nil, nil, nil
}

// trim returns col in an allocation of its own length when a reservation or
// amortized growth left more than an eighth of it unused.
func trim[E any](col []E) []E {
	if cap(col)-len(col) <= len(col)/8 {
		return col
	}
	return slices.Clone(col)
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

// index fills depth and prevSibling in one forward sweep over a tree
// numbered in preorder, without recursion (trees may be deep): a parent
// precedes its children, and the right sibling of u is End(u)+1 when that
// node shares u's parent.  It returns the height.
func (t *Tree) index() (height int) {
	n := NodeID(t.Len())
	t.prevSibling = make([]NodeID, n)
	for v := range t.prevSibling {
		t.prevSibling[v] = InvalidNode
	}
	t.depth[0] = 0
	for u := range n {
		if p := t.parent[u]; p != InvalidNode {
			t.depth[u] = t.depth[p] + 1
			height = max(height, int(t.depth[u]))
		}
		if s := t.End(u) + 1; s < n && t.parent[s] == t.parent[u] {
			t.prevSibling[s] = u
		}
	}
	return height + 1
}

// finish is the last step of every constructor, Builder and Preorder alike:
// it sets the whole-tree counts, the height given and the alphabet from the
// code column, and commits a dictionary the constructor owns.
func (t *Tree) finish(height int, ownedDict bool) {
	t.height = height
	// The codes seen, on the stack for up to 4,096 codes: plain stores, so
	// that a run of one code is no chain of read-modify-writes.
	var buf [4096]bool
	seen := buf[:0]
	if d := t.dict.Len(); d <= len(buf) {
		seen = buf[:d]
	} else {
		seen = make([]bool, d)
	}
	for _, c := range t.labelCode {
		seen[c] = true
	}
	t.alphabet = 0
	for _, s := range seen {
		if s {
			t.alphabet++
		}
	}
	if ownedDict {
		t.dict.commit()
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
	if t.labelOff[n] == t.labelOff[n+1] {
		sb.WriteString("_")
	} else {
		sb.WriteString(strings.Join(t.Labels(n), "+"))
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
