package tree

import (
	"errors"
	"slices"
	"strings"
	"unsafe"
)

// Preorder constructs a tree whose nodes arrive in document order, the way a
// parser reads them: Start opens a child of the innermost open node (the
// root first), AddCode labels the node Start opened last, AppendText adds
// text to the innermost open node, and End closes it.  Every column is
// written in its final preorder place on arrival — the parent and the depth
// when a node starts, its left sibling from the node that closed last under
// the same parent, its size when it ends — so Build runs no rank, layout or
// index sweep.  Where the nodes may come in any order, use a Builder.
//
// The int32 columns (parent, left sibling, depth, size, both offset columns
// and the label codes) share one allocation, sized by Init and regrown whole
// when a document outgrows it.
type Preorder struct {
	coder
	// n and labels count the nodes started and the codes added: the columns
	// are as long as the room they have.  height is 1 + the greatest depth
	// started.
	n, labels int
	height    int32
	// cur is the innermost open node, InvalidNode before the root and after
	// it closed; prev is cur's last closed child, InvalidNode when it has none.
	cur, prev NodeID
	text      strings.Builder
	// late holds mixed content: text of an open node that arrives after one
	// of its children started, whose run therefore cannot extend in place.
	// lateText backs the runs; Build splices them into preorder.
	late     []lateRun
	lateText []byte
}

// lateRun is one chunk of mixed content: lateText[start:end] belongs to node.
type lateRun struct {
	node       NodeID
	start, end int32
}

// Init starts a tree that draws codes from d, the dictionary of an earlier
// tree (nil for a fresh one), with room for the given numbers of nodes,
// labels and text bytes.  The room is a guess: more of any grows, and Build
// trims a guess that overshot by more than an eighth.  The Preorder must
// not be copied once used.
func (p *Preorder) Init(d *Dict, nodes, labels, text int) {
	*p = Preorder{cur: InvalidNode, prev: InvalidNode}
	p.coder.init(d)
	p.realloc(max(nodes, 1), max(labels, 1))
	p.text.Grow(text)
}

// realloc moves the columns into one new block with room for the given
// numbers of nodes and labels, keeping what fits of their contents.
func (p *Preorder) realloc(nodes, labels int) {
	t := &p.t
	block := make([]int32, 6*nodes+2+labels)
	col := func(old []int32, size int) []int32 {
		c := block[:size:size]
		copy(c, old)
		block = block[size:]
		return c
	}
	t.parent = nodeIDs(col(int32s(t.parent), nodes))
	t.prevSibling = nodeIDs(col(int32s(t.prevSibling), nodes))
	t.depth = col(t.depth, nodes)
	t.size = col(t.size, nodes)
	t.labelOff = col(t.labelOff, nodes+1)
	t.textOff = col(t.textOff, nodes+1)
	t.labelCode = codes(col(int32s(t.labelCode), labels))
}

// nodeIDs, codes and int32s view an int32 column under another of the
// int32-based element types, sharing its memory.
func nodeIDs(c []int32) []NodeID { return unsafe.Slice((*NodeID)(unsafe.SliceData(c)), len(c)) }

func codes(c []int32) []Code { return unsafe.Slice((*Code)(unsafe.SliceData(c)), len(c)) }

func int32s[E NodeID | Code](c []E) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(c))), len(c))
}

// Len returns the number of nodes started so far.
func (p *Preorder) Len() int { return p.n }

// Open reports whether a node is open: Start then adds its child, and the
// tree is not complete.
func (p *Preorder) Open() bool { return p.cur != InvalidNode }

// Start opens a new node labeled with the code c (from Code or CodeBytes) as
// the last child of the innermost open node, or as the root when the tree
// is still empty, and returns its NodeID.  It panics when a complete tree
// already has its root.
func (p *Preorder) Start(c Code) NodeID {
	t := &p.t
	v := NodeID(p.n)
	if p.cur == InvalidNode && v != 0 {
		panic("tree: a tree has exactly one root; Preorder.Start after the root ended")
	}
	if p.n == len(t.parent) {
		p.realloc(2*p.n, len(t.labelCode))
	}
	depth := int32(0)
	if p.cur != InvalidNode {
		depth = t.depth[p.cur] + 1
	}
	t.parent[v] = p.cur
	t.prevSibling[v] = p.prev
	t.depth[v] = depth
	t.labelOff[v] = int32(p.labels)
	t.textOff[v] = int32(p.text.Len())
	p.height = max(p.height, depth+1)
	p.n++
	p.cur, p.prev = v, InvalidNode
	p.addCode(c)
	return v
}

// AddCode adds the label of code c to the node Start opened last, which must
// still be open and have no child yet: its labels end the code column.
func (p *Preorder) AddCode(c Code) {
	if p.cur != NodeID(p.n-1) || p.cur == InvalidNode {
		panic("tree: Preorder.AddCode after a child started or the node ended")
	}
	p.addCode(c)
}

// addCode appends the code c to the code column.
func (p *Preorder) addCode(c Code) {
	t := &p.t
	if c < 0 || int(c) >= t.dict.Len() {
		panic("tree: label code not in the dictionary")
	}
	if p.labels == len(t.labelCode) {
		p.realloc(len(t.parent), 2*p.labels)
	}
	t.labelCode[p.labels] = c
	p.labels++
}

// AppendText appends s to the text of the innermost open node.
func (p *Preorder) AppendText(s string) {
	if p.inPlace() {
		p.text.WriteString(s)
		return
	}
	p.addLate(append(p.lateText, s...))
}

// AppendTextBytes is AppendText for text in a byte slice, which may be
// reused after the call.
func (p *Preorder) AppendTextBytes(s []byte) {
	if p.inPlace() {
		p.text.Write(s)
		return
	}
	p.addLate(append(p.lateText, s...))
}

// inPlace reports whether the innermost open node's text run ends the text,
// so that appending extends it: the node has no child yet.
func (p *Preorder) inPlace() bool {
	if p.cur == InvalidNode {
		panic("tree: Preorder.AppendText with no open node")
	}
	return p.cur == NodeID(p.n-1)
}

// addLate records the end of lateText, its new contents, as a late run of
// the innermost open node.
func (p *Preorder) addLate(lateText []byte) {
	start := int32(len(p.lateText))
	p.lateText = lateText
	p.late = append(p.late, lateRun{node: p.cur, start: start, end: int32(len(lateText))})
}

// End closes the innermost open node, which fixes its subtree size.
func (p *Preorder) End() {
	v := p.cur
	if v == InvalidNode {
		panic("tree: Preorder.End with no open node")
	}
	t := &p.t
	t.size[v] = int32(p.n) - int32(v)
	p.cur, p.prev = t.parent[v], v
}

// Build returns the tree once its root has ended.  It closes the offset
// columns, splices any mixed content into preorder, and trims a reservation
// that overshot by more than an eighth.  The Preorder must not be used
// afterwards.
func (p *Preorder) Build() (*Tree, error) {
	t := &p.t
	n := p.n
	if n == 0 {
		return nil, errors.New("tree: cannot build an empty tree")
	}
	if p.cur != InvalidNode {
		return nil, errors.New("tree: Preorder.Build with open nodes")
	}
	t.labelOff[n] = int32(p.labels)
	if len(p.late) == 0 {
		t.text = p.text.String()
		if p.text.Cap()-len(t.text) > len(t.text)/8 {
			t.text = strings.Clone(t.text)
		}
		t.textOff[n] = int32(len(t.text))
	} else {
		p.splice()
	}
	if used, held := 6*n+2+p.labels, 6*len(t.parent)+2+len(t.labelCode); held-used > used/8 {
		p.realloc(n, p.labels)
	}
	// Each column ends where its length does, so that no append to one
	// shared column can write into the next.
	out := new(Tree)
	*out = *t
	out.parent, out.prevSibling = out.parent[:n:n], out.prevSibling[:n:n]
	out.depth, out.size = out.depth[:n:n], out.size[:n:n]
	out.labelOff, out.textOff = out.labelOff[:n+1:n+1], out.textOff[:n+1:n+1]
	out.labelCode = out.labelCode[:p.labels:p.labels]
	out.finish(int(p.height), p.owned)
	*p = Preorder{}
	return out, nil
}

// splice lays the text out in preorder when some arrived late: each node's
// own run, then its late runs in arrival order.
func (p *Preorder) splice() {
	t := &p.t
	slices.SortStableFunc(p.late, func(a, b lateRun) int { return int(a.node) - int(b.node) })
	own := p.text.String()
	var sb strings.Builder
	sb.Grow(len(own) + len(p.lateText))
	n := p.n
	late := p.late
	start := int32(0)
	for v := range n {
		end := int32(len(own))
		if v+1 < n {
			end = t.textOff[v+1]
		}
		t.textOff[v] = int32(sb.Len())
		sb.WriteString(own[start:end])
		for ; len(late) > 0 && late[0].node == NodeID(v); late = late[1:] {
			sb.Write(p.lateText[late[0].start:late[0].end])
		}
		start = end
	}
	t.text = sb.String()
	t.textOff[n] = int32(len(t.text))
}
