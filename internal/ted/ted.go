// Package ted implements tree edit distance — the ranking kernel behind the
// LangSimilar prepare route.  The algorithm is the keyroots decomposition of
// Zhang & Shasha: number the nodes in postorder, precompute for every node
// the postorder index of its leftmost leaf descendant l(v), and run the
// forest-distance DP once per pair of keyroots (nodes that have a left
// sibling, plus the root).  The permanent tree-distance table is filled
// bottom-up, so the answer for the two roots falls out of the last keyroot
// pair.  Unit costs: insert 1, delete 1, rename 1 (0 when the labels match).
//
// The document side is the tree itself: a candidate subtree is a NodeID
// interval, which each kernel call projects into postorder scratch, so no
// per-document postorder copy is kept and no per-candidate tree is
// materialized.  What is cached per document (Doc) is only the size-ordered
// candidate walk.  The query side (Pattern) is decomposed once at compile
// time and reused across documents and their revisions; only the
// translation of its labels into the document's label codes (those of the
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

// Doc is the similarity search's view of one document: bySize lists the
// NodeIDs ordered by (subtree size, NodeID), so the search can walk
// candidates in increasing size distance from the pattern and stop at the
// first unreachable band.  Two subtrees of equal size never nest, so within
// one size preorder is postorder too.  The view depends on the tree's shape
// alone — an edit that moves no node keeps it — and is immutable and safe
// for concurrent use.
type Doc struct {
	bySize []int32
}

// unlabeled is the code of an unlabeled node, and of a pattern's unlabeled
// node, when the dictionary holds no "" label they could share instead: an
// unlabeled node matches exactly what a "" label would.
const unlabeled tree.Code = -2

// NewDoc orders the tree's nodes by subtree size in O(n) time: a counting
// sort on size (1..n), stable over ascending NodeIDs.
func NewDoc(t *tree.Tree) *Doc {
	n := t.Len()
	// next[s] is the slot of the next node of size s.
	next := make([]int32, n+2)
	for v := range tree.NodeID(n) {
		next[t.SubtreeSize(v)+1]++
	}
	for s := 1; s < len(next); s++ {
		next[s] += next[s-1]
	}
	d := &Doc{bySize: make([]int32, n)}
	for v := range tree.NodeID(n) {
		s := t.SubtreeSize(v)
		d.bySize[next[s]] = int32(v)
		next[s]++
	}
	return d
}

// Len returns the number of nodes.
func (d *Doc) Len() int { return len(d.bySize) }

// BySize returns the NodeIDs ordered by (subtree size, NodeID).  Shared;
// callers must not mutate.
func (d *Doc) BySize() []int32 { return d.bySize }

// code returns the code in dict of a primary label, "" standing for an
// unlabeled node.
func code(dict *tree.Dict, label string) tree.Code {
	c := dict.Code(label)
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

// Codes translates the pattern's labels into the label codes of a document's
// dictionary, one per pattern postorder position, tree.NoCode for labels the
// dictionary lacks.  O(|P|).
func (p *Pattern) Codes(dict *tree.Dict) []tree.Code {
	return p.AppendCodes(make([]tree.Code, 0, p.n), dict)
}

// AppendCodes is Codes appending to dst, so a caller can keep the codes in
// storage of its own.
func (p *Pattern) AppendCodes(dst []tree.Code, dict *tree.Dict) []tree.Code {
	for _, l := range p.labels {
		dst = append(dst, code(dict, l))
	}
	return dst
}

// tedCalls counts full kernel invocations; the similarity search's pruning
// effectiveness is (candidates - tedCalls) / candidates.
var tedCalls atomic.Uint64

// KernelCalls returns the process-wide number of Distance invocations.
func KernelCalls() uint64 { return tedCalls.Load() }

// Distance returns the tree edit distance between the pattern and the
// subtree of t rooted at v.  codes must come from p.Codes(t.Dict()).
//
// The subtree is the NodeID interval [v, End(v)].  It is first projected into
// pooled postorder scratch — each node's primary label code and leftmost
// leaf, and the keyroots — at local position Post(u) - Post(v) + size(v) - 1;
// that costs O(|subtree|) against the DP's O(|P|·|subtree|).
func Distance(t *tree.Tree, v tree.NodeID, p *Pattern, codes []tree.Code) int {
	tedCalls.Add(1)
	n2 := t.SubtreeSize(v)
	m := p.n
	if m == 0 {
		return n2
	}

	projBuf := acquire(3 * n2)
	proj := *projBuf
	lab, lml, kr2 := proj[:n2:n2], proj[n2:2*n2:2*n2], proj[2*n2:]
	blank := code(t.Dict(), "")
	base := t.Post(v) - n2
	for u, last := v, t.End(v); u <= last; u++ {
		j := t.Post(u) - base - 1
		lab[j] = int32(blank)
		if ls := t.LabelCodes(u); len(ls) > 0 {
			lab[j] = int32(ls[0])
		}
		lml[j] = int32(j - t.SubtreeSize(u) + 1)
		// Keyroots: every node with a left sibling, plus the subtree root
		// itself.  A flag per position first, then compacted in place into
		// ascending positions.
		kr2[j] = 0
		if u == v || t.PrevSibling(u) != tree.InvalidNode {
			kr2[j] = 1
		}
	}
	k := 0
	for j, isKR := range kr2 {
		if isKR != 0 {
			kr2[k] = int32(j)
			k++
		}
	}
	kr2 = kr2[:k]

	tdBuf := acquire(m * n2)             // permanent tree-distance table
	fdBuf := acquire((m + 1) * (n2 + 1)) // per-keyroot-pair forest-distance table
	td, fd := *tdBuf, *fdBuf
	w := n2 + 1 // fd row stride

	for _, i := range p.kr {
		li := int(p.lml[i])
		for _, jr := range kr2 {
			lj := int(lml[jr])
			ie := int(i) - li + 1 // pattern forest extent
			je := int(jr) - lj + 1
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
					j1 := lj + dj - 1 // subtree postorder position
					if int(p.lml[i1]) == li && int(lml[j1]) == lj {
						// Both forests are whole trees: record a tree distance.
						cost := int32(1)
						if codes[i1] != tree.NoCode && int32(codes[i1]) == lab[j1] {
							cost = 0
						}
						dist := min3(
							fd[(di-1)*w+dj]+1,
							fd[di*w+dj-1]+1,
							fd[(di-1)*w+dj-1]+cost,
						)
						fd[di*w+dj] = dist
						td[i1*n2+j1] = dist
					} else {
						fd[di*w+dj] = min3(
							fd[(di-1)*w+dj]+1,
							fd[di*w+dj-1]+1,
							fd[(int(p.lml[i1])-li)*w+(int(lml[j1])-lj)]+td[i1*n2+j1],
						)
					}
				}
			}
		}
	}
	out := int(td[(m-1)*n2+(n2-1)])
	release(tdBuf)
	release(fdBuf)
	release(projBuf)
	return out
}

// DistanceTrees runs the kernel on two standalone trees (pattern a against
// the whole of b).  It is the reference entry point used by the property
// tests and the single-document CLI path.
func DistanceTrees(a, b *tree.Tree) int {
	p := NewPattern(a)
	return Distance(b, b.Root(), p, p.Codes(b.Dict()))
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
