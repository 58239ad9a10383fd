package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ted"
	"repro/internal/tree"
)

// Hit is one ranked answer of a similarity query: a document node and its
// tree edit distance to the pattern.  Hits are ordered by (Distance, pre).
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
		plan.note("candidates walked in size order; size and label-histogram bounds prune before any kernel call")
	}
	c.run = func(ctx context.Context, e *Engine, p *Plan) (*Result, error) {
		hits, err := search(e, ctx, pat, k, maxDist, p)
		if err != nil {
			return nil, err
		}
		return &Result{Hits: hits}, nil
	}
	return nil
}

// hitHeap is a bounded max-heap under the (distance, pre) result order: the
// root is the worst retained hit, so a full heap admits a candidate exactly
// when the candidate precedes the root in result order.
type hitHeap []Hit

func hitWorse(a, b Hit) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Node > b.Node // Node carries pre order here (set to pre-1 during search)
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

// threshold returns the largest distance a new candidate may reach and still
// possibly enter the result: the worst retained distance once the heap is
// full, clamped by maxdist.  Candidates with a lower bound strictly above the
// threshold are pruned; equality survives because a tie can still displace
// the heap root on the pre-order tiebreak.
func (h hitHeap) threshold(k, maxDist int) int {
	t := int(^uint(0) >> 1) // MaxInt
	if maxDist >= 0 {
		t = maxDist
	}
	if k > 0 && len(h) == k && h[0].Distance < t {
		t = h[0].Distance
	}
	return t
}

// finish sorts the retained hits into result order and translates the pre
// indexes stashed in Node into real NodeIDs.
func (h hitHeap) finish(t *tree.Tree) []Hit {
	sort.Slice(h, func(i, j int) bool {
		if h[i].Distance != h[j].Distance {
			return h[i].Distance < h[j].Distance
		}
		return h[i].Node < h[j].Node
	})
	out := make([]Hit, len(h))
	for i, hit := range h {
		out[i] = Hit{Node: t.NodeAtPre(int(hit.Node) + 1), Distance: hit.Distance}
	}
	return out
}

// similarCheckpoint is how many candidates are examined between ctx checks.
const similarCheckpoint = 256

// similarTopK is the pruned similarity search: candidates are walked outward
// from the pattern's size band (so the subtree-size lower bound terminates
// the walk at the first unreachable band), the label-histogram lower bound
// from the per-label posting lists eliminates most survivors, and only then
// does the keyroots kernel run.
func (e *Engine) similarTopK(ctx context.Context, pat *ted.Pattern, k, maxDist int, p *Plan) ([]Hit, error) {
	d := e.idx.TED()
	codes := d.Codes(pat)
	m := pat.Size()

	// Posting lists for the pattern's distinct labels, fetched once per
	// execution (cache hits after the first) for the histogram bound.
	type labelCount struct {
		posting []int32
		count   int
	}
	labels := make([]labelCount, 0, len(pat.Hist()))
	for l, c := range pat.Hist() {
		labels = append(labels, labelCount{posting: e.idx.PostingList(l), count: c})
	}

	bySize := d.BySize()
	n := len(bySize)
	// First candidate with subtree size >= m; the two cursors then expand
	// outward, always stepping to the side with the smaller size distance.
	up := sort.Search(n, func(i int) bool { return d.SubtreeSize(int(bySize[i])) >= m })
	down := up - 1

	var hits hitHeap
	var candidates, sizePruned, histPruned uint64
	defer func() {
		similarCandidates.Add(candidates)
		similarSizePruned.Add(sizePruned)
		similarHistPruned.Add(histPruned)
		p.note("similar: %d candidates, %d size-pruned, %d histogram-pruned, %d kernel calls",
			candidates, sizePruned, histPruned, candidates-sizePruned-histPruned)
	}()

	for down >= 0 || up < n {
		if candidates%similarCheckpoint == similarCheckpoint-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tau := hits.threshold(k, maxDist)
		// Pick the side with the smaller size distance; a side whose next
		// band already exceeds the threshold is exhausted for good (sizes
		// are monotone along each cursor and the threshold only shrinks).
		var j int
		downDiff, upDiff := -1, -1
		if down >= 0 {
			downDiff = m - d.SubtreeSize(int(bySize[down]))
			if downDiff > tau {
				sizePruned += uint64(down + 1)
				candidates += uint64(down + 1)
				down = -1
				downDiff = -1
			}
		}
		if up < n {
			upDiff = d.SubtreeSize(int(bySize[up])) - m
			if upDiff > tau {
				sizePruned += uint64(n - up)
				candidates += uint64(n - up)
				up = n
				upDiff = -1
			}
		}
		switch {
		case downDiff >= 0 && (upDiff < 0 || downDiff <= upDiff):
			j = int(bySize[down])
			down--
		case upDiff >= 0:
			j = int(bySize[up])
			up++
		default:
			continue // both sides just exhausted; loop condition ends the walk
		}
		candidates++

		size := d.SubtreeSize(j)
		// Label-histogram lower bound: every node not matched to an
		// equal-labeled node costs at least one edit, so
		// ted >= max(|T|, |P|) - sum_l min(count_T(l), count_P(l)).
		overlap := 0
		if len(labels) > 0 {
			preLo := int32(d.PreAt(j))
			preHi := preLo + int32(size) // exclusive
			for _, lc := range labels {
				pl := lc.posting
				lo := sort.Search(len(pl), func(i int) bool { return pl[i] >= preLo })
				hi := sort.Search(len(pl), func(i int) bool { return pl[i] >= preHi })
				if c := hi - lo; c < lc.count {
					overlap += c
				} else {
					overlap += lc.count
				}
			}
		}
		lb := size
		if m > size {
			lb = m
		}
		lb -= overlap
		if lb > tau {
			histPruned++
			continue
		}

		dist := ted.Distance(d, j, pat, codes)
		if dist > tau {
			continue
		}
		hits = hits.offer(k, Hit{Node: tree.NodeID(d.PreAt(j) - 1), Distance: dist})
	}
	return hits.finish(e.doc), nil
}

// similarExhaustive runs the kernel against every subtree with no lower
// bounds — the Naive-strategy baseline the pruned path is benchmarked and
// differentially tested against.
func (e *Engine) similarExhaustive(ctx context.Context, pat *ted.Pattern, k, maxDist int, p *Plan) ([]Hit, error) {
	d := e.idx.TED()
	codes := d.Codes(pat)
	var hits hitHeap
	var candidates uint64
	for j := 0; j < d.Len(); j++ {
		if candidates%similarCheckpoint == similarCheckpoint-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		candidates++
		dist := ted.Distance(d, j, pat, codes)
		if maxDist >= 0 && dist > maxDist {
			continue
		}
		hits = hits.offer(k, Hit{Node: tree.NodeID(d.PreAt(j) - 1), Distance: dist})
	}
	similarCandidates.Add(candidates)
	p.note("similar: exhaustive over %d subtrees", candidates)
	return hits.finish(e.doc), nil
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
