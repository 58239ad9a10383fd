// Package ted implements tree edit distance — the ranking kernel behind the
// LangSimilar prepare route.  The algorithm is the keyroots decomposition of
// Zhang & Shasha: number the nodes in postorder, precompute for every node
// the postorder index of its leftmost leaf descendant l(v), and run the
// forest-distance DP once per pair of keyroots (nodes that have a left
// sibling, plus the root).  The permanent tree-distance table is filled
// bottom-up, so the answer for the two roots falls out of the last keyroot
// pair.  Unit costs: insert 1, delete 1, rename 1 (0 when the labels match).
//
// The document side is cut once per document straight from the tree (Doc)
// and cached in the shared index; a subtree of the document is a contiguous
// postorder range, so every candidate shares the same arrays and no
// per-candidate tree is materialized.  The query side (Pattern) is decomposed
// once at compile time and reused across documents and their revisions; only
// the translation of its labels into the document's label codes (those of the
// tree's dictionary) is per-document.
//
// DP scratch is pooled with the same size-bucketed sync.Pool idiom as
// package bitset (power-of-two buckets keyed on slice length, hit/miss
// counters surfaced through obsv.PoolCounters), because the similarity
// search calls the kernel once per surviving candidate and the matrices
// would otherwise dominate allocation.
package ted

import (
	"sync/atomic"

	"repro/internal/tree"
)

// Doc is the postorder view of one document.  All slices are indexed by
// 0-based postorder position; a subtree rooted at postorder position j spans
// exactly the positions [lml(j), j], lml(j) = j - size[j] + 1 being its
// leftmost leaf.  A Doc is immutable and safe for
// concurrent use.
type Doc struct {
	n    int
	lsib []bool      // whether the node has a left sibling (keyroot test)
	lab  []tree.Code // tree code of the node's primary label per postorder position
	size []int32     // subtree size per postorder position
	node []int32     // the node (its NodeID, a preorder rank) per postorder position
	// bySize lists postorder positions ordered by (subtree size, postorder),
	// so the similarity search can walk candidates in increasing size
	// distance from the pattern and stop at the first unreachable band.
	bySize []int32
	// dict is the tree's dictionary, which Codes translates pattern labels
	// through.
	dict *tree.Dict
}

// unlabeled is the code of an unlabeled node, and of a pattern's unlabeled
// node, when the dictionary holds no "" label they could share instead: an
// unlabeled node matches exactly what a "" label would.
const unlabeled tree.Code = -2

// NewDoc cuts the postorder view from the tree in O(n) time — one sweep in
// document order and a counting sort for the size ordering — into a single
// allocation for the integer columns and one for the label codes.
func NewDoc(t *tree.Tree) *Doc {
	n := t.Len()
	cols := make([]int32, 3*n)
	d := &Doc{
		n:    n,
		size: cols[:n:n], node: cols[n : 2*n : 2*n], bySize: cols[2*n:],
		lab:  make([]tree.Code, n),
		lsib: make([]bool, n),
		dict: t.Dict(),
	}
	for v := range tree.NodeID(n) {
		j := int32(t.Post(v) - 1)
		size := int32(t.SubtreeSize(v))
		code := d.code("")
		if ls := t.LabelCodes(v); len(ls) > 0 {
			code = ls[0]
		}
		d.node[j], d.lab[j], d.size[j] = int32(v), code, size
		d.lsib[j] = t.PrevSibling(v) != tree.InvalidNode
	}
	// Counting sort on subtree size (1..n), stable over ascending postorder
	// positions: next[s] is the slot of the next position of size s.
	next := make([]int32, n+2)
	for _, s := range d.size {
		next[s+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	for j, s := range d.size {
		d.bySize[next[s]] = int32(j)
		next[s]++
	}
	return d
}

// lml returns the leftmost leaf of the subtree rooted at postorder position
// j: a subtree is a contiguous postorder range ending at its root, and the
// first position of that range is the leftmost leaf.
func (d *Doc) lml(j int) int { return j - int(d.size[j]) + 1 }

// Len returns the number of nodes.
func (d *Doc) Len() int { return d.n }

// SubtreeSize returns the size of the subtree rooted at postorder position j.
func (d *Doc) SubtreeSize(j int) int { return int(d.size[j]) }

// Node returns the node at postorder position j.
func (d *Doc) Node(j int) tree.NodeID { return tree.NodeID(d.node[j]) }

// BySize returns the postorder positions ordered by (subtree size,
// postorder).  Shared; callers must not mutate.
func (d *Doc) BySize() []int32 { return d.bySize }

// Codes translates the pattern's labels into the document's label codes, one
// per pattern postorder position, tree.NoCode for labels the document's
// dictionary lacks.  O(|P|).
func (d *Doc) Codes(p *Pattern) []tree.Code {
	codes := make([]tree.Code, p.n)
	for j, l := range p.labels {
		codes[j] = d.code(l)
	}
	return codes
}

// code returns the code of a primary label, "" standing for an unlabeled
// node.
func (d *Doc) code(label string) tree.Code {
	c := d.dict.Code(label)
	if c == tree.NoCode && label == "" {
		return unlabeled
	}
	return c
}

// Pattern is the prepare-time decomposition of a query tree: postorder label
// array, leftmost-leaf array, keyroots, and the label histogram driving the
// histogram lower bound.  A Pattern is document-independent — one compiled
// query runs it on every document — and immutable after NewPattern.
type Pattern struct {
	n      int
	lml    []int32
	kr     []int32 // keyroot postorder positions, ascending
	labels []string
	hist   map[string]int
}

// NewPattern decomposes a pattern tree.
func NewPattern(t *tree.Tree) *Pattern {
	n := t.Len()
	p := &Pattern{
		n:      n,
		lml:    make([]int32, n),
		labels: make([]string, n),
		hist:   make(map[string]int, n),
	}
	for i, v := range t.NodesInOrder(tree.PostOrder) {
		j := int32(i)
		p.lml[j] = j - int32(t.SubtreeSize(v)) + 1
		p.labels[j] = t.Label(v)
		p.hist[t.Label(v)]++
		if t.PrevSibling(v) != tree.InvalidNode || t.IsRoot(v) {
			p.kr = append(p.kr, j)
		}
	}
	return p
}

// Size returns the number of pattern nodes.
func (p *Pattern) Size() int { return p.n }

// Hist returns the pattern's primary-label histogram.  Shared; read-only.
func (p *Pattern) Hist() map[string]int { return p.hist }

// Keyroots returns the pattern's keyroot postorder positions, ascending.
// Shared; read-only.
func (p *Pattern) Keyroots() []int32 { return p.kr }

// tedCalls counts full kernel invocations; the similarity search's pruning
// effectiveness is (candidates - tedCalls) / candidates.
var tedCalls atomic.Uint64

// KernelCalls returns the process-wide number of Distance invocations.
func KernelCalls() uint64 { return tedCalls.Load() }

// Distance returns the tree edit distance between the pattern and the
// document subtree rooted at postorder position root.  codes must come from
// d.Codes(p).
func Distance(d *Doc, root int, p *Pattern, codes []tree.Code) int {
	tedCalls.Add(1)
	lo := d.lml(root)
	n2 := root - lo + 1
	m := p.n
	if m == 0 {
		return n2
	}

	// Keyroots of the candidate subtree: every in-range node with a left
	// sibling, plus the subtree root itself (whether or not it has one).
	kr2Buf := acquire(n2)
	kr2 := (*kr2Buf)[:0]
	for g := lo; g < root; g++ {
		if d.lsib[g] {
			kr2 = append(kr2, int32(g))
		}
	}
	kr2 = append(kr2, int32(root))

	tdBuf := acquire(m * n2)             // permanent tree-distance table
	fdBuf := acquire((m + 1) * (n2 + 1)) // per-keyroot-pair forest-distance table
	td, fd := *tdBuf, *fdBuf
	w := n2 + 1 // fd row stride

	for _, i := range p.kr {
		li := int(p.lml[i])
		for _, jg := range kr2 {
			lj := d.lml(int(jg)) - lo // local coordinates within the subtree
			ie := int(i) - li + 1     // pattern forest extent
			je := int(jg) - lo - lj + 1
			fd[0] = 0
			for di := 1; di <= ie; di++ {
				fd[di*w] = fd[(di-1)*w] + 1
			}
			for dj := 1; dj <= je; dj++ {
				fd[dj] = fd[dj-1] + 1
			}
			for di := 1; di <= ie; di++ {
				i1 := li + di - 1 // pattern postorder position
				for dj := 1; dj <= je; dj++ {
					j1 := lj + dj - 1 // local doc postorder position
					jg1 := lo + j1    // global doc postorder position
					if int(p.lml[i1]) == li && d.lml(jg1)-lo == lj {
						// Both forests are whole trees: record a tree distance.
						cost := int32(1)
						if codes[i1] != tree.NoCode && codes[i1] == d.lab[jg1] {
							cost = 0
						}
						v := min3(
							fd[(di-1)*w+dj]+1,
							fd[di*w+dj-1]+1,
							fd[(di-1)*w+dj-1]+cost,
						)
						fd[di*w+dj] = v
						td[i1*n2+j1] = v
					} else {
						fd[di*w+dj] = min3(
							fd[(di-1)*w+dj]+1,
							fd[di*w+dj-1]+1,
							fd[(int(p.lml[i1])-li)*w+(d.lml(jg1)-lo-lj)]+td[i1*n2+j1],
						)
					}
				}
			}
		}
	}
	out := int(td[(m-1)*n2+(n2-1)])
	release(tdBuf)
	release(fdBuf)
	release(kr2Buf)
	return out
}

// DistanceTrees runs the kernel on two standalone trees (pattern a against
// the whole of b).  It is the reference entry point used by the property
// tests and the single-document CLI path.
func DistanceTrees(a, b *tree.Tree) int {
	d := NewDoc(b)
	p := NewPattern(a)
	return Distance(d, d.Len()-1, p, d.Codes(p))
}

func min3(a, b, c int32) int32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
