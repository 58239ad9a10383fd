// Package index provides the shared, lazily-built document index used by the
// prepare/execute query pipeline: one Index per tree caches the derived
// structures that the evaluator layers would otherwise rebuild on every
// query.  What the default routes read is small: one sorted node list per
// label (its posting list), that label's boolean mask, and the
// tree-edit-distance view.  Navigation is not an index artifact: NodeIDs are
// preorder ranks, so the tree's own link columns are the rank-space view,
// and tree.Image is the one set-at-a-time axis primitive behind XPath and
// the relational kernel.  The relational
// encoding of Section 2 — the XASR labeling relation, label-complete XASR
// side relations (one per label, covering every label a node carries, so the
// structural-join shortcut is sound on multi-labeled trees), and memoized
// structural-join pair relations ("axis closures") — is built only for those
// who ask for it by name: the forced Yannakakis baseline, the indexed twig
// path merge, the experiments.
//
// An Index is safe for concurrent use by multiple goroutines: every artifact
// is built at most once (double-checked locking under a shared mutex) and is
// immutable once published.  Callers therefore MUST NOT mutate any slice or
// relation returned by an Index.  Pair relations — the one artifact family
// whose key space grows with the square of the alphabet — sit behind a
// size-capped LRU (WithPairCap), so documents with many distinct
// (axis, label, label) combinations cannot grow the cache without bound; an
// evicted relation is simply rebuilt on next use.
//
// Release drops every cached artifact while keeping the Index usable, so a
// corpus that swaps in a new revision of a document can stop the superseded
// engine from pinning memory while in-flight queries finish against it.
//
// Build and hit counters are exported through Snapshot so callers (the core
// engine's Plan, the treeq -timing flag, the benchmarks) can observe how much
// work the cache amortized.
package index

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/labeling"
	"repro/internal/lru"
	"repro/internal/relstore"
	"repro/internal/ted"
	"repro/internal/tree"
)

// Stats is a point-in-time snapshot of the cache counters of an Index.
type Stats struct {
	// XASRBuilds counts XASR materializations: 1 after first use, plus one
	// per rebuild forced by a Release.
	XASRBuilds uint64
	// LabelListBuilds / LabelListHits count cache misses/hits of the one
	// per-label node list (NodesWithLabel, alias PostingList).
	LabelListBuilds, LabelListHits uint64
	// LabelMaskBuilds / LabelMaskHits count LabelMask cache misses/hits.
	LabelMaskBuilds, LabelMaskHits uint64
	// LabelRowBuilds / LabelRowHits count label-complete XASR side-relation
	// cache misses/hits (the per-label XASR columns behind StructuralPairs).
	LabelRowBuilds, LabelRowHits uint64
	// PairBuilds / PairHits count StructuralPairs cache misses/hits.
	PairBuilds, PairHits uint64
	// PairEvictions counts pair relations evicted to respect the configured
	// cap (see WithPairCap); a rebuilt evicted relation counts as a new build.
	PairEvictions uint64
	// PairEntries is the number of pair relations currently cached.
	PairEntries uint64
	// TEDBuilds counts constructions of the tree-edit-distance view (the
	// ted.Doc behind the similarity route: the nodes ordered by subtree size),
	// rebuilds after Release included.
	TEDBuilds uint64
	// Releases counts Release calls (cache drops after a document swap).
	Releases uint64
	// MultiLabeled reports whether some node of the indexed tree carries more
	// than one label (computed once at build time; purely informational — the
	// structural-join shortcut is label-complete and serves both kinds).
	MultiLabeled bool
}

// Hits returns the total number of cache hits across all artifact kinds.
func (s Stats) Hits() uint64 {
	return s.LabelListHits + s.LabelMaskHits + s.LabelRowHits + s.PairHits
}

// Builds returns the total number of artifact constructions.
func (s Stats) Builds() uint64 {
	return s.XASRBuilds + s.LabelListBuilds + s.LabelMaskBuilds +
		s.LabelRowBuilds + s.PairBuilds + s.TEDBuilds
}

// Add returns the field-wise sum of two snapshots (MultiLabeled ORs); the
// corpus service uses it to aggregate counters across every engine's index.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		XASRBuilds:      s.XASRBuilds + o.XASRBuilds,
		LabelListBuilds: s.LabelListBuilds + o.LabelListBuilds,
		LabelListHits:   s.LabelListHits + o.LabelListHits,
		LabelMaskBuilds: s.LabelMaskBuilds + o.LabelMaskBuilds,
		LabelMaskHits:   s.LabelMaskHits + o.LabelMaskHits,
		LabelRowBuilds:  s.LabelRowBuilds + o.LabelRowBuilds,
		LabelRowHits:    s.LabelRowHits + o.LabelRowHits,
		PairBuilds:      s.PairBuilds + o.PairBuilds,
		PairHits:        s.PairHits + o.PairHits,
		TEDBuilds:       s.TEDBuilds + o.TEDBuilds,
		PairEvictions:   s.PairEvictions + o.PairEvictions,
		PairEntries:     s.PairEntries + o.PairEntries,
		Releases:        s.Releases + o.Releases,
		MultiLabeled:    s.MultiLabeled || o.MultiLabeled,
	}
}

type pairKey struct {
	axis     tree.Axis
	from, to string
}

// Index caches derived structures of one tree.  The zero value is not usable;
// construct with New.
type Index struct {
	t *tree.Tree

	// multi is computed once, at construction: the tree is immutable, so a
	// lazy scan would only buy laziness at the price of re-armable sync state
	// (and it used to race usefully with Release).  It is informational only —
	// the structural-join shortcut is label-complete either way.
	multi bool

	// The label-keyed caches and the whole-document artifacts (XASR, TED
	// view) share one RWMutex with a build-outside-the-lock,
	// double-check-on-publish discipline, so Release can drop them all and a
	// later request simply rebuilds (a sync.Once could not be re-armed).
	mu   sync.RWMutex
	xasr *labeling.XASR
	// labels holds the per-label caches, indexed by label code in the tree's
	// dictionary: nil until one of a label's artifacts is built.
	labels []*labelArtifacts
	// tedDoc is the size-ordered candidate walk of the similarity route:
	// built lazily, dropped by Release, carried by a shape-preserving Patch.
	tedDoc *ted.Doc

	// Pair relations are the one unbounded-growth artifact (one entry per
	// distinct (axis, fromLabel, toLabel) ever joined), so unlike the
	// label-keyed caches they sit behind a size-capped LRU.  When capped,
	// hits move entries and must hold the write lock; when unbounded (the
	// default) Get is a pure read and hits stay on the shared read lock.
	// No default route joins pairs, so the cache is made on the first build
	// of one, under pairMu like every other access to it; until then it is
	// nil and holds nothing.
	pairMu  sync.RWMutex
	pairs   *lru.Cache[pairKey, *relstore.Relation]
	pairCap int

	xasrBuilds                   atomic.Uint64
	listBuilds, listHits         atomic.Uint64
	maskBuilds, maskHits         atomic.Uint64
	rowBuilds, rowHits           atomic.Uint64
	pairBuilds, pairHitsCounters atomic.Uint64
	tedBuilds                    atomic.Uint64
	releases                     atomic.Uint64
}

// labelArtifacts are the cached artifacts of one label, each nil until
// built.  rows is the label-complete XASR side relation: one XASR-schema
// relation holding the rows of every node carrying the label — under any
// position, not just the primary lab column — so structural joins restricted
// through it are sound on multi-labeled trees.
type labelArtifacts struct {
	nodes []tree.NodeID
	mask  bitset.Bits
	rows  *relstore.Relation
}

// cached returns the artifacts of code c, or an empty set.  The caller holds
// ix.mu.
func (ix *Index) cached(c tree.Code) labelArtifacts {
	if a := ix.labels[c]; a != nil {
		return *a
	}
	return labelArtifacts{}
}

// slot returns the artifacts of code c for writing.  The caller holds ix.mu
// for writing.
func (ix *Index) slot(c tree.Code) *labelArtifacts {
	if ix.labels[c] == nil {
		ix.labels[c] = &labelArtifacts{}
	}
	return ix.labels[c]
}

// Option configures an Index.
type Option func(*config)

type config struct {
	pairCap int
}

// WithPairCap caps the number of cached structural-join pair relations; the
// least recently used relation is evicted when a build would exceed the cap.
// 0 (the default) means unbounded, matching the pre-cap behavior.
func WithPairCap(n int) Option {
	return func(c *config) { c.pairCap = n }
}

// New creates an empty index over t.  Nothing is built until first use
// except the (O(|D|), boolean) multi-label classification.
func New(t *tree.Tree, opts ...Option) *Index {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return newIndex(t, multiLabeled(t, 0, t.Len()), cfg)
}

// newIndex returns an Index over t with empty caches.
func newIndex(t *tree.Tree, multi bool, cfg config) *Index {
	return &Index{
		t:       t,
		multi:   multi,
		labels:  make([]*labelArtifacts, t.Dict().Len()),
		pairCap: cfg.pairCap,
	}
}

// multiLabeled reports whether one of the nodes [from, to) of t carries
// more than one label.
func multiLabeled(t *tree.Tree, from, to int) bool {
	for n := tree.NodeID(from); int(n) < to; n++ {
		if len(t.LabelCodes(n)) > 1 {
			return true
		}
	}
	return false
}

// Tree returns the indexed tree.
func (ix *Index) Tree() *tree.Tree { return ix.t }

// XASR returns the shared XASR of the tree, materializing it on first use
// (and again after a Release dropped it).
func (ix *Index) XASR() *labeling.XASR {
	ix.mu.RLock()
	x := ix.xasr
	ix.mu.RUnlock()
	if x != nil {
		return x
	}
	built := labeling.BuildXASR(ix.t)
	ix.mu.Lock()
	if ix.xasr != nil {
		// Another goroutine raced us to it; keep the published copy.
		built = ix.xasr
		ix.mu.Unlock()
		return built
	}
	ix.xasr = built
	ix.mu.Unlock()
	ix.xasrBuilds.Add(1)
	return built
}

// Release drops every cached artifact — the XASR, label lists, masks and
// side relations, the TED view, and all structural-join pair relations —
// returning their memory to the collector while the Index stays fully
// usable: a later request simply rebuilds what it needs.
//
// Release exists for document swaps: when a corpus replaces a document, the
// superseded engine may still be serving in-flight queries, so it cannot be
// torn down — but once released it stops pinning the O(|D|) index artifacts
// for however long the slowest straggler runs.  Artifacts already handed out
// remain valid (they are immutable); only the cache's own references are
// dropped.  Safe for concurrent use with every other method.
func (ix *Index) Release() {
	ix.mu.Lock()
	ix.xasr = nil
	clear(ix.labels)
	ix.tedDoc = nil
	ix.mu.Unlock()
	// The pair cache is cleared in place, not dropped: explicit removals do
	// not count as evictions, so the eviction counter stays monotonic.
	ix.pairMu.Lock()
	if ix.pairs != nil {
		ix.pairs.RemoveFunc(func(pairKey) bool { return true })
	}
	ix.pairMu.Unlock()
	ix.releases.Add(1)
}

// MultiLabeled reports whether some node of the tree carries more than one
// label (computed once when the index is built).  It is informational only:
// StructuralPairs joins over label-complete side relations, so the shortcut
// is sound on multi-labeled trees too.
func (ix *Index) MultiLabeled() bool { return ix.multi }

// NodesWithLabel returns, in document order, the nodes carrying the label in
// any label position, and nil, without touching a cache, for a label the
// tree's dictionary lacks.  NodeIDs are preorder ranks, so the list is sorted
// and is the label's posting list too: the occurrences inside a subtree [v,
// End(v)] are two binary searches away.  The returned slice is shared:
// callers must not mutate it.
func (ix *Index) NodesWithLabel(label string) []tree.NodeID {
	c := ix.t.Dict().Code(label)
	if c == tree.NoCode {
		return nil
	}
	return ix.nodesWithCode(c)
}

// nodesWithCode returns the cached node list of code c, building it first
// when it is cold.
func (ix *Index) nodesWithCode(c tree.Code) []tree.NodeID {
	ix.mu.RLock()
	ns := ix.cached(c).nodes
	ix.mu.RUnlock()
	if ns != nil {
		ix.listHits.Add(1)
		return ns
	}
	built := ix.t.NodesWithCode(c)
	if built == nil {
		built = []tree.NodeID{} // built, and empty: a label the tree no longer carries
	}
	ix.mu.Lock()
	if cached := ix.cached(c).nodes; cached != nil {
		// Another goroutine raced us to it; keep the published copy.
		ix.mu.Unlock()
		ix.listHits.Add(1)
		return cached
	}
	ix.slot(c).nodes = built
	ix.mu.Unlock()
	ix.listBuilds.Add(1)
	return built
}

// LabelMask returns a bit vector over NodeIDs: bit n reports whether node n
// carries the label.  It is CodeMask of the label's code, and a fresh empty
// vector, without touching a cache, for a label the tree's dictionary lacks.
func (ix *Index) LabelMask(label string) bitset.Bits {
	c := ix.t.Dict().Code(label)
	if c == tree.NoCode {
		return bitset.New(ix.t.Len())
	}
	return ix.CodeMask(c)
}

// CodeMask returns a bit vector over NodeIDs: bit n reports whether node n
// carries the label of code c, which must be a code of the tree's
// dictionary.  The returned vector is shared: callers must not mutate or
// Release it (clone first if a scratch mask is needed).  A code no node
// carries gets its empty vector memoized too.
func (ix *Index) CodeMask(c tree.Code) bitset.Bits {
	ix.mu.RLock()
	m := ix.cached(c).mask
	ix.mu.RUnlock()
	if m != nil {
		ix.maskHits.Add(1)
		return m
	}
	built := bitset.New(ix.t.Len())
	ix.t.MarkCode(c, built)
	ix.mu.Lock()
	if cached := ix.cached(c).mask; cached != nil {
		ix.mu.Unlock()
		ix.maskHits.Add(1)
		return cached
	}
	ix.slot(c).mask = built
	ix.mu.Unlock()
	ix.maskBuilds.Add(1)
	return built
}

// LabelRows returns the label-complete XASR side relation of the label: one
// XASR-schema row per node carrying the label in any position (unlike the
// XASR's own lab column, which records only primary labels), in document
// order.  An empty label means the whole XASR.  These sides are what makes
// StructuralPairs sound on multi-labeled trees.  The returned relation is
// shared and must be treated as read-only.
func (ix *Index) LabelRows(label string) *relstore.Relation {
	if label == "" {
		return ix.XASR().Relation()
	}
	c := ix.t.Dict().Code(label)
	if c == tree.NoCode {
		return ix.XASR().SubRelation("R_"+label, nil)
	}
	ix.mu.RLock()
	r := ix.cached(c).rows
	ix.mu.RUnlock()
	if r != nil {
		ix.rowHits.Add(1)
		return r
	}
	built := ix.XASR().SubRelation("R_"+label, ix.nodesWithCode(c))
	ix.mu.Lock()
	if cached := ix.cached(c).rows; cached != nil {
		// Another goroutine raced us to it; keep the published copy.
		ix.mu.Unlock()
		ix.rowHits.Add(1)
		return cached
	}
	ix.slot(c).rows = built
	ix.mu.Unlock()
	ix.rowBuilds.Add(1)
	return built
}

// TED returns the shared tree-edit-distance view of the tree — its nodes
// ordered by subtree size, the similarity search's candidate walk — built on
// first use and again after a Release dropped it.  The returned view is
// immutable and shared.
func (ix *Index) TED() *ted.Doc {
	ix.mu.RLock()
	d := ix.tedDoc
	ix.mu.RUnlock()
	if d != nil {
		return d
	}
	built := ted.NewDoc(ix.t)
	ix.mu.Lock()
	if ix.tedDoc != nil {
		// Another goroutine raced us to it; keep the published copy.
		built = ix.tedDoc
		ix.mu.Unlock()
		return built
	}
	ix.tedDoc = built
	ix.mu.Unlock()
	ix.tedBuilds.Add(1)
	return built
}

// PostingList is NodesWithLabel under its information-retrieval name, for
// callers that know the list by it: the same cached list, counted by the
// same LabelList counters.
func (ix *Index) PostingList(label string) []tree.NodeID { return ix.NodesWithLabel(label) }

// StructuralPairs returns the cached structural-join pair relation
// (from_pre, to_pre) for axis(from, to) with the given (possibly empty)
// label restrictions, or ok=false for axes without a sub-quadratic join
// path.  The sides are label-complete (LabelRows), so the shortcut is sound
// on multi-labeled trees — attribute-labeled documents included.  The
// returned relation is shared and must be treated as read-only.
func (ix *Index) StructuralPairs(axis tree.Axis, fromLabel, toLabel string) (*relstore.Relation, bool) {
	switch axis {
	case tree.Child, tree.Descendant, tree.Ancestor:
	default:
		return nil, false
	}
	k := pairKey{axis: axis, from: fromLabel, to: toLabel}
	capped := ix.pairCap > 0
	if capped {
		ix.pairMu.Lock()
	} else {
		ix.pairMu.RLock()
	}
	var r *relstore.Relation
	ok := false
	if ix.pairs != nil {
		r, ok = ix.pairs.Get(k)
	}
	if capped {
		ix.pairMu.Unlock()
	} else {
		ix.pairMu.RUnlock()
	}
	if ok {
		ix.pairHitsCounters.Add(1)
		return r, true
	}
	built := ix.XASR().StructuralJoinSides(axis, ix.LabelRows(fromLabel), ix.LabelRows(toLabel))
	ix.pairMu.Lock()
	if ix.pairs == nil {
		ix.pairs = lru.New[pairKey, *relstore.Relation](ix.pairCap)
	}
	if cached, ok := ix.pairs.Get(k); ok {
		// Another goroutine raced us to it; keep the published copy.
		ix.pairMu.Unlock()
		ix.pairHitsCounters.Add(1)
		return cached, true
	}
	ix.pairs.Add(k, built)
	ix.pairMu.Unlock()
	ix.pairBuilds.Add(1)
	return built, true
}

// PairCap returns the configured cap on cached pair relations (0 = unbounded).
func (ix *Index) PairCap() int { return ix.pairCap }

// Snapshot returns the current cache counters.
func (ix *Index) Snapshot() Stats {
	var pairEntries, pairEvictions uint64
	ix.pairMu.RLock()
	if ix.pairs != nil {
		pairEntries, pairEvictions = uint64(ix.pairs.Len()), ix.pairs.Evictions()
	}
	ix.pairMu.RUnlock()
	return Stats{
		XASRBuilds:      ix.xasrBuilds.Load(),
		LabelListBuilds: ix.listBuilds.Load(),
		LabelListHits:   ix.listHits.Load(),
		LabelMaskBuilds: ix.maskBuilds.Load(),
		LabelMaskHits:   ix.maskHits.Load(),
		LabelRowBuilds:  ix.rowBuilds.Load(),
		LabelRowHits:    ix.rowHits.Load(),
		PairBuilds:      ix.pairBuilds.Load(),
		PairHits:        ix.pairHitsCounters.Load(),
		TEDBuilds:       ix.tedBuilds.Load(),
		PairEvictions:   pairEvictions,
		PairEntries:     pairEntries,
		Releases:        ix.releases.Load(),
		MultiLabeled:    ix.multi,
	}
}
