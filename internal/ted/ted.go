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
// the translation of its labels into a document's label codes is per-document.
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
// exactly the positions [lml[j], j].  A Doc is immutable and safe for
// concurrent use.
type Doc struct {
	n    int
	lml  []int32 // leftmost-leaf postorder position per postorder position
	lsib []bool  // whether the node has a left sibling (keyroot test)
	lab  []int32 // code of the node's primary label per postorder position
	size []int32 // subtree size per postorder position
	node []int32 // the node (its NodeID, a preorder rank) per postorder position
	// bySize lists postorder positions ordered by (subtree size, postorder),
	// so the similarity search can walk candidates in increasing size
	// distance from the pattern and stop at the first unreachable band.
	bySize []int32
	// codes numbers the primary labels in order of first occurrence in
	// document order, so two trees with the same labels in the same places
	// get equal views.
	codes map[string]int32
}

// NewDoc cuts the postorder view from the tree in O(n) time — one sweep in
// document order and a counting sort for the size ordering — into a single
// allocation for the five integer columns.
func NewDoc(t *tree.Tree) *Doc {
	n := t.Len()
	cols := make([]int32, 5*n)
	d := &Doc{
		n:   n,
		lml: cols[:n:n], lab: cols[n : 2*n : 2*n], size: cols[2*n : 3*n : 3*n],
		node: cols[3*n : 4*n : 4*n], bySize: cols[4*n:],
		lsib:  make([]bool, n),
		codes: map[string]int32{},
	}
	for v := range tree.NodeID(n) {
		j := int32(t.Post(v) - 1)
		size := int32(t.SubtreeSize(v))
		label := t.Label(v)
		code, ok := d.codes[label]
		if !ok {
			code = int32(len(d.codes))
			d.codes[label] = code
		}
		d.node[j], d.lab[j], d.size[j] = int32(v), code, size
		// A subtree is a contiguous postorder range ending at its root, and
		// the first position of that range is the leftmost leaf.
		d.lml[j] = j - size + 1
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
// per pattern postorder position, -1 for labels no node of the document has
// as its primary label.  O(|P|).
func (d *Doc) Codes(p *Pattern) []int32 {
	codes := make([]int32, p.n)
	for j, l := range p.labels {
		if c, ok := d.codes[l]; ok {
			codes[j] = c
		} else {
			codes[j] = -1
		}
	}
	return codes
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
func Distance(d *Doc, root int, p *Pattern, codes []int32) int {
	tedCalls.Add(1)
	lo := int(d.lml[root])
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
			lj := int(d.lml[jg]) - lo // local coordinates within the subtree
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
					if int(p.lml[i1]) == li && int(d.lml[jg1])-lo == lj {
						// Both forests are whole trees: record a tree distance.
						cost := int32(1)
						if codes[i1] >= 0 && codes[i1] == d.lab[jg1] {
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
							fd[(int(p.lml[i1])-li)*w+(int(d.lml[jg1])-lo-lj)]+td[i1*n2+j1],
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
