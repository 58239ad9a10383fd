package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ted"
	"repro/internal/tree"
)

// Hit is one ranked answer of a similarity query: a document node and its
// tree edit distance to the pattern.  Hits are ordered by (Distance, Node):
// NodeIDs are preorder ranks, so ties go to document order.
type Hit struct {
	// Node is the root of the matched subtree.
	Node tree.NodeID
	// Distance is the tree edit distance between the pattern and the subtree.
	Distance int
}

// Process-wide similarity-search counters: how many candidate subtrees the
// searches considered, and how many the two lower bounds eliminated before
// any kernel call.  Kernel invocations themselves are counted by package ted.
var (
	similarCandidates atomic.Uint64
	similarSizePruned atomic.Uint64
	similarHistPruned atomic.Uint64
)

// SimilarCounters returns the process-wide similarity-search counters:
// candidates considered, candidates eliminated by the subtree-size lower
// bound, candidates eliminated by the label-histogram lower bound, and full
// tree-edit-distance kernel calls.  candidates - sizePruned - histPruned =
// kernelCalls up to the searches currently in flight.
func SimilarCounters() (candidates, sizePruned, histPruned, kernelCalls uint64) {
	return similarCandidates.Load(), similarSizePruned.Load(),
		similarHistPruned.Load(), ted.KernelCalls()
}

// DefaultSimilarK is the k used when a similarity query does not specify one.
const DefaultSimilarK = 10

// parseSimilarText parses the LangSimilar query syntax:
//
//	query   := { directive } pattern
//	directive := "k=" INT | "maxdist=" INT
//	pattern := a tree in the ParseSexpr syntax, e.g. "a(b(c) d)"
//
// k bounds the number of hits (0 = unlimited, default DefaultSimilarK);
// maxdist discards hits farther than the bound (default: no bound).  Example:
// "k=5 maxdist=3 item(name description)".
func parseSimilarText(text string) (k, maxDist int, pat *tree.Tree, err error) {
	k, maxDist = DefaultSimilarK, -1
	rest := strings.TrimSpace(text)
	for {
		eq := strings.IndexByte(rest, '=')
		sp := strings.IndexAny(rest, " \t\n")
		if eq < 0 || (sp >= 0 && eq > sp) {
			break
		}
		key := rest[:eq]
		if key != "k" && key != "maxdist" {
			break
		}
		var val string
		if sp < 0 {
			val, rest = rest[eq+1:], ""
		} else {
			val, rest = rest[eq+1:sp], strings.TrimSpace(rest[sp+1:])
		}
		n, perr := strconv.Atoi(val)
		if perr != nil || n < 0 {
			return 0, 0, nil, fmt.Errorf("core: similar: %s must be a non-negative integer, got %q", key, val)
		}
		if key == "k" {
			k = n
		} else {
			maxDist = n
		}
	}
	if rest == "" {
		return 0, 0, nil, fmt.Errorf("core: similar: missing pattern in %q", text)
	}
	pat, err = tree.ParseSexpr(rest)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("core: similar: bad pattern: %w", err)
	}
	return k, maxDist, pat, nil
}

// compileSimilar decomposes the pattern (postorder arrays, keyroots, label
// histogram) once; it reads no document.
func (c *Compiled) compileSimilar(plan *Plan, s Strategy, t *time.Time) error {
	k, maxDist, patTree, err := parseSimilarText(c.text)
	if err != nil {
		return err
	}
	plan.lap("parse", t)
	pat := ted.NewPattern(patTree)
	plan.lap("ted", t)
	plan.note("pattern with %d nodes, %d keyroots, %d distinct labels; k=%d maxdist=%d",
		pat.Size(), len(pat.Keyroots()), len(pat.Hist()), k, maxDist)
	c.labels = make([]string, 0, len(pat.Hist()))
	for l := range pat.Hist() {
		c.labels = append(c.labels, l)
	}
	sort.Strings(c.labels)
	// The pattern is tiny, but reporting its node count gives the plan-cache
	// admission policy the same size handle the rewrite route exposes.
	c.clauses = pat.Size()
	search := (*Engine).similarTopK
	if s == Naive {
		plan.Technique = "exhaustive tree edit distance (keyroots kernel, no pruning)"
		search = (*Engine).similarExhaustive
	} else {
		plan.Technique = "top-k tree edit distance (posting-list lower bounds + keyroots kernel)"
		plan.note("candidates walked band by band in size distance, each band in document order; size and label-histogram bounds prune against the (distance, pre) result order before any kernel call")
	}
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		hits, err := search(e, ctx, pat, k, maxDist, p)
		return Result{Hits: hits}, err
	}
	return nil
}

// hitHeap is a bounded max-heap under the (distance, node) result order: the
// root is the worst retained hit, so a full heap admits a candidate exactly
// when the candidate precedes the root in result order.
type hitHeap []Hit

// newHitHeap returns an empty heap sized for the at most min(k, candidates)
// hits a search can retain.  k comes from the query text, so it never sizes
// the heap alone; an unbounded search (k = 0) grows the heap as it goes.
func newHitHeap(k, candidates int) hitHeap {
	if k <= 0 {
		return nil
	}
	return make(hitHeap, 0, min(k, candidates))
}

func hitWorse(a, b Hit) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Node > b.Node
}

func (h hitHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && hitWorse(h[l], h[worst]) {
			worst = l
		}
		if r < len(h) && hitWorse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

func (h hitHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !hitWorse(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// offer adds a hit under capacity k (0 = unbounded), displacing the worst
// retained hit when full.  It returns the updated heap.
func (h hitHeap) offer(k int, hit Hit) hitHeap {
	if k <= 0 || len(h) < k {
		h = append(h, hit)
		h.siftUp(len(h) - 1)
		return h
	}
	if hitWorse(h[0], hit) {
		h[0] = hit
		h.siftDown(0)
	}
	return h
}

// bars reports whether a candidate node whose distance is at least lb can no
// longer enter the result.  maxdist admits every distance up to and
// including itself, whatever the node; a full heap admits only a hit that
// precedes its root in (distance, node) result order, so a tie with the root
// is barred once the candidate comes later in document order.  node = -1
// precedes every node, so only a strict distance excess bars it.
func (h hitHeap) bars(k, maxDist, lb int, node tree.NodeID) bool {
	if maxDist >= 0 && lb > maxDist {
		return true
	}
	return k > 0 && len(h) == k && hitWorse(Hit{Node: node, Distance: lb}, h[0])
}

// finish sorts the retained hits into result order.
func (h hitHeap) finish() []Hit {
	slices.SortFunc(h, func(a, b Hit) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.Node, b.Node))
	})
	return h
}

// similarCheckpoint is how many candidates are examined between ctx checks.
const similarCheckpoint = 256

// similarScratch is how many pattern nodes and distinct pattern labels an
// execution's scratch arrays hold on the stack; a larger pattern's spill to
// the heap.
const similarScratch = 32

// similarTopK is the pruned similarity search.  Candidates are walked band by
// band — a band is the run of BySize with one subtree size — in increasing
// size distance from the pattern, ties toward the smaller size, and each band
// in ascending BySize index.  Two nodes of equal subtree size are never
// nested, so that is document order, the result order's tiebreak.  Both
// lower bounds (subtree size, then the label histogram from the per-label
// posting lists) are tested against the result order itself: a full heap
// admits a candidate only if (lb, node) precedes its root.  A size bound that
// ties the root therefore ends the band at the first candidate later than
// the root, one that exceeds it ends the walk, and the keyroots kernel runs
// only on what is left — about k times once the k-th answer is decided.
func (e *Engine) similarTopK(ctx context.Context, pat *ted.Pattern, k, maxDist int, p *Plan) ([]Hit, error) {
	t := e.doc
	var codeBuf [similarScratch]tree.Code
	codes := pat.AppendCodes(codeBuf[:0], t.Dict())
	m := pat.Size()

	// Posting lists for the pattern's distinct labels, fetched once per
	// execution (cache hits after the first) for the histogram bound.
	type labelCount struct {
		posting []tree.NodeID
		count   int
	}
	var labelBuf [similarScratch]labelCount
	labels := labelBuf[:0]
	for l, c := range pat.Hist() {
		labels = append(labels, labelCount{posting: e.idx.NodesWithLabel(l), count: c})
	}

	bySize := e.idx.TED().BySize()
	n := len(bySize)
	sizeAt := func(i int) int { return t.SubtreeSize(tree.NodeID(bySize[i])) }
	// The bands below the pattern's size are bySize[:down], taken from the
	// largest size downward; those at or above it are bySize[up:], upward.
	up := sort.Search(n, func(i int) bool { return sizeAt(i) >= m })
	down := up

	hits := newHitHeap(k, n)
	var candidates, sizePruned, histPruned uint64
	defer func() {
		similarCandidates.Add(candidates)
		similarSizePruned.Add(sizePruned)
		similarHistPruned.Add(histPruned)
		p.Similar = SimilarFunnel{Searched: true, Candidates: candidates, SizePruned: sizePruned, HistPruned: histPruned}
	}()

	for examined := 0; down > 0 || up < n; {
		// Take the nearer band: bySize[lo:hi], every member diff away in size.
		var lo, hi, diff int
		if down > 0 && (up == n || m-sizeAt(down-1) <= sizeAt(up)-m) {
			s := sizeAt(down - 1)
			diff, hi = m-s, down
			lo = sort.Search(down, func(i int) bool { return sizeAt(i) >= s })
			down = lo
		} else {
			s := sizeAt(up)
			diff, lo = s-m, up
			hi = up + sort.Search(n-up, func(i int) bool { return sizeAt(up+i) > s })
			up = hi
		}
		if hits.bars(k, maxDist, diff, -1) {
			// Not even the band's first node can enter, nor any node of a
			// farther band: bands come in increasing diff and the heap only
			// improves.
			rest := uint64(hi - lo + down + n - up)
			candidates += rest
			sizePruned += rest
			break
		}
		for i := lo; i < hi; i++ {
			if examined%similarCheckpoint == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			examined++
			v := tree.NodeID(bySize[i])
			if hits.bars(k, maxDist, diff, v) {
				// The size bound alone bars this node, and every later band
				// member comes later in document order.
				cut := uint64(hi - i)
				candidates += cut
				sizePruned += cut
				break
			}
			candidates++

			// Label-histogram lower bound: every node not matched to an
			// equal-labeled node costs at least one edit, so
			// ted >= max(|T|, |P|) - sum_l min(count_T(l), count_P(l)).
			// The subtree of v is the NodeID interval [v, v+size).
			size := t.SubtreeSize(v)
			overlap := 0
			for _, lc := range labels {
				from, _ := slices.BinarySearch(lc.posting, v)
				to, _ := slices.BinarySearch(lc.posting, v+tree.NodeID(size))
				overlap += min(to-from, lc.count)
			}
			if hits.bars(k, maxDist, max(size, m)-overlap, v) {
				histPruned++
				continue
			}

			dist := ted.Distance(t, v, pat, codes)
			if maxDist >= 0 && dist > maxDist {
				continue
			}
			hits = hits.offer(k, Hit{Node: v, Distance: dist})
		}
	}
	return hits.finish(), nil
}

// similarExhaustive runs the kernel against every subtree with no lower
// bounds — the Naive-strategy baseline the pruned path is benchmarked and
// differentially tested against.
func (e *Engine) similarExhaustive(ctx context.Context, pat *ted.Pattern, k, maxDist int, p *Plan) ([]Hit, error) {
	t := e.doc
	var codeBuf [similarScratch]tree.Code
	codes := pat.AppendCodes(codeBuf[:0], t.Dict())
	hits := newHitHeap(k, t.Len())
	var candidates uint64
	for v := range tree.NodeID(t.Len()) {
		if candidates%similarCheckpoint == similarCheckpoint-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		candidates++
		dist := ted.Distance(t, v, pat, codes)
		if maxDist >= 0 && dist > maxDist {
			continue
		}
		hits = hits.offer(k, Hit{Node: v, Distance: dist})
	}
	similarCandidates.Add(candidates)
	p.Similar = SimilarFunnel{Searched: true, Exhaustive: true, Candidates: candidates}
	return hits.finish(), nil
}

// Similar prepares and executes a similarity query in one step, returning
// the ranked hits; the convenience analogue of Engine.XPath for LangSimilar.
func (e *Engine) Similar(text string) ([]Hit, *Plan, error) {
	res, plan, err := e.once(compile(LangSimilar, text, e.strategy))
	if err != nil {
		return nil, plan, err
	}
	return res.Hits, plan, nil
}
