// Package index provides the shared, lazily-built document index used by the
// prepare/execute query pipeline: one Index per tree caches the derived
// structures that the evaluator layers would otherwise rebuild on every
// query.  It caches only what the default routes read: one sorted node list
// per label (its posting list), that label's boolean mask, and the
// tree-edit-distance view.  Navigation is not an index artifact: NodeIDs are
// preorder ranks, so the tree's own link columns are the rank-space view,
// and tree.Image is the one set-at-a-time axis primitive behind XPath and
// the relational kernel.  The relational encoding of Section 2 (the XASR and
// its structural joins) lives in package labeling and is built by those who
// ask for it, per call.
//
// An Index is safe for concurrent use by multiple goroutines: every artifact
// is built at most once (double-checked locking under one mutex) and is
// immutable once published.  Callers therefore MUST NOT mutate any slice
// returned by an Index.
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
	"repro/internal/relstore"
	"repro/internal/ted"
	"repro/internal/tree"
)

// Stats is a point-in-time snapshot of the cache counters of an Index.
type Stats struct {
	// LabelListBuilds / LabelListHits count cache misses/hits of the one
	// per-label node list (NodesWithLabel, alias PostingList).
	LabelListBuilds, LabelListHits uint64
	// LabelMaskBuilds / LabelMaskHits count LabelMask cache misses/hits.
	LabelMaskBuilds, LabelMaskHits uint64
	// PairEvictions is always 0: the index caches no pair relation.
	//
	// Deprecated: kept for callers that still read it.
	PairEvictions uint64
	// TEDBuilds counts constructions of the tree-edit-distance view (the
	// ted.Doc behind the similarity route: the nodes ordered by subtree size),
	// rebuilds after Release included.
	TEDBuilds uint64
	// Releases counts Release calls (cache drops after a document swap).
	Releases uint64
	// MultiLabeled reports whether some node of the indexed tree carries more
	// than one label (computed once at build time; informational).
	MultiLabeled bool
}

// Hits returns the total number of cache hits across all artifact kinds.
func (s Stats) Hits() uint64 { return s.LabelListHits + s.LabelMaskHits }

// Builds returns the total number of artifact constructions.
func (s Stats) Builds() uint64 { return s.LabelListBuilds + s.LabelMaskBuilds + s.TEDBuilds }

// Add returns the field-wise sum of two snapshots (MultiLabeled ORs); the
// corpus service uses it to aggregate counters across every engine's index.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		LabelListBuilds: s.LabelListBuilds + o.LabelListBuilds,
		LabelListHits:   s.LabelListHits + o.LabelListHits,
		LabelMaskBuilds: s.LabelMaskBuilds + o.LabelMaskBuilds,
		LabelMaskHits:   s.LabelMaskHits + o.LabelMaskHits,
		TEDBuilds:       s.TEDBuilds + o.TEDBuilds,
		Releases:        s.Releases + o.Releases,
		MultiLabeled:    s.MultiLabeled || o.MultiLabeled,
	}
}

// Index caches derived structures of one tree.  The zero value is not usable;
// construct with New.
type Index struct {
	t *tree.Tree

	// multi is computed once, at construction: the tree is immutable, so a
	// lazy scan would only buy laziness at the price of re-armable sync state.
	multi bool

	// The label-keyed caches and the TED view share one RWMutex with a
	// build-outside-the-lock, double-check-on-publish discipline, so Release
	// can drop them all and a later request simply rebuilds (a sync.Once
	// could not be re-armed).
	mu sync.RWMutex
	// labels holds the per-label caches, indexed by label code in the tree's
	// dictionary: nil until one of a label's artifacts is built.
	labels []*labelArtifacts
	// tedDoc is the size-ordered candidate walk of the similarity route:
	// built lazily, dropped by Release, carried by a shape-preserving Patch.
	tedDoc *ted.Doc

	listBuilds, listHits atomic.Uint64
	maskBuilds, maskHits atomic.Uint64
	tedBuilds            atomic.Uint64
	releases             atomic.Uint64
}

// labelArtifacts are the cached artifacts of one label, each nil until
// built.
type labelArtifacts struct {
	nodes []tree.NodeID
	mask  bitset.Bits
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

// New creates an empty index over t.  Nothing is built until first use
// except the (O(|D|), boolean) multi-label classification.
func New(t *tree.Tree) *Index {
	return newIndex(t, multiLabeled(t, 0, t.Len()))
}

// newIndex returns an Index over t with empty caches.
func newIndex(t *tree.Tree, multi bool) *Index {
	return &Index{t: t, multi: multi, labels: make([]*labelArtifacts, t.Dict().Len())}
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

// Release drops every cached artifact — label lists, masks and the TED
// view — returning their memory to the collector while the Index stays fully
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
	clear(ix.labels)
	ix.tedDoc = nil
	ix.mu.Unlock()
	ix.releases.Add(1)
}

// MultiLabeled reports whether some node of the tree carries more than one
// label (computed once when the index is built).  It is informational only.
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

// XASR builds the tree's XASR (package labeling) on each call.
//
// Deprecated: the index caches no relational state; call
// labeling.BuildXASR.
func (ix *Index) XASR() *labeling.XASR { return labeling.BuildXASR(ix.t) }

// LabelRows builds the label-complete XASR side relation of the label on
// each call.
//
// Deprecated: call (*labeling.XASR).LabelRows.
func (ix *Index) LabelRows(label string) *relstore.Relation { return ix.XASR().LabelRows(label) }

// StructuralPairs builds the label-complete structural-join pair relation of
// axis(from, to) on each call.
//
// Deprecated: call (*labeling.XASR).StructuralPairs.
func (ix *Index) StructuralPairs(axis tree.Axis, fromLabel, toLabel string) (*relstore.Relation, bool) {
	return ix.XASR().StructuralPairs(axis, fromLabel, toLabel)
}

// Snapshot returns the current cache counters.
func (ix *Index) Snapshot() Stats {
	return Stats{
		LabelListBuilds: ix.listBuilds.Load(),
		LabelListHits:   ix.listHits.Load(),
		LabelMaskBuilds: ix.maskBuilds.Load(),
		LabelMaskHits:   ix.maskHits.Load(),
		TEDBuilds:       ix.tedBuilds.Load(),
		Releases:        ix.releases.Load(),
		MultiLabeled:    ix.multi,
	}
}
