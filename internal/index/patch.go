package index

import (
	"repro/internal/bitset"
	"repro/internal/labeling"
	"repro/internal/lru"
	"repro/internal/relstore"
	"repro/internal/tree"
)

// PatchSpec describes a verified single-splice edit (internal/treediff):
// old preorder rows [Start, Start+OldLen) are replaced by the new tree's
// rows [Start, Start+NewLen).  ShapePreserving marks edits that change no
// pre/post/parent value (pure relabel or text edits).
//
// Touched lists the labels whose extension (the nodes carrying the label)
// the edit can have changed; artifacts keyed by any other label survive the
// patch.  What Patch needs of it depends on the edit:
//
//   - ShapePreserving: no node moves, so an untouched label's artifacts are
//     shared as they are.  That is sound iff Touched holds every old and new
//     label of every node whose label list changed (a side relation's rows
//     carry the node's primary-label code, so a node contributes its whole
//     list, not only the labels it gained or lost).  An edit of text alone
//     has an empty Touched and invalidates nothing.
//   - otherwise survivors past the splice are renumbered by Delta, and the
//     remap of an untouched label's artifacts assumes none of its nodes lies
//     inside a region: Touched must cover every label of either region.
type PatchSpec struct {
	Start, OldLen, NewLen int
	Touched               []string
	ShapePreserving       bool
}

// Delta returns the node-count change of the splice.
func (s PatchSpec) Delta() int { return s.NewLen - s.OldLen }

// unseen reports an edit the index cannot see: same shape and the same label
// list on every node, that is, an edit of text alone.
func (s PatchSpec) unseen() bool { return s.ShapePreserving && len(s.Touched) == 0 }

// Patch derives the index of nt from an existing index by splicing, instead
// of rebuilding from scratch:
//
//   - the columnar XASR is patched (labeling.PatchXASR) when the old index
//     had materialized one — only region rows are recomputed, survivors are
//     shifted, and only new labels are re-interned into a cloned dictionary;
//   - label node lists, masks and rows for labels NOT in spec.Touched are
//     carried over, remapping node ids past the splice by Delta (shared
//     outright when Delta is 0);
//   - cached structural-join pair relations whose (from, to) labels are both
//     non-empty and untouched are carried over with both pre columns
//     remapped;
//   - whole-document artifacts that see labels — pair relations with a ""
//     side and the TED view, whose label codes cover every node — survive
//     only an edit the index cannot see, a shape-preserving one that touched
//     no label;
//   - everything else (touched labels, region labels) is dropped and rebuilt
//     lazily on first use, exactly as after a Release.
//
// The old index is never mutated: readers still running against it see a
// fully consistent document.  The result is a brand-new Index over nt with
// its own pair-relation LRU (inheriting the old cap unless opts override it)
// and fresh counters, except XASRBuilds which records the patched build.
func Patch(old *Index, nt *tree.Tree, spec PatchSpec, opts ...Option) *Index {
	cfg := config{pairCap: old.PairCap()}
	for _, o := range opts {
		o(&cfg)
	}
	delta := spec.Delta()
	touched := make(map[string]bool, len(spec.Touched))
	for _, l := range spec.Touched {
		touched[l] = true
	}
	unseen := spec.unseen()

	nix := &Index{
		t:          nt,
		multi:      patchedMulti(old, nt, spec),
		labelNodes: map[string][]tree.NodeID{},
		labelMasks: map[string]bitset.Bits{},
		labelRows:  map[string]*relstore.Relation{},
		pairs:      lru.New[pairKey, *relstore.Relation](cfg.pairCap),
	}

	old.mu.RLock()
	oldXASR, oldTED := old.xasr, old.tedDoc
	oldNodes := make(map[string][]tree.NodeID, len(old.labelNodes))
	for l, ns := range old.labelNodes {
		oldNodes[l] = ns
	}
	oldMasks := make(map[string]bitset.Bits, len(old.labelMasks))
	for l, m := range old.labelMasks {
		oldMasks[l] = m
	}
	oldRows := make(map[string]*relstore.Relation, len(old.labelRows))
	for l, r := range old.labelRows {
		oldRows[l] = r
	}
	old.mu.RUnlock()

	if oldXASR != nil {
		nix.xasr = labeling.PatchXASR(oldXASR, nt, spec.Start, spec.OldLen, spec.NewLen)
		nix.xasrBuilds.Add(1)
	}
	if unseen {
		// The view is a function of the tree's shape and primary labels, and
		// its label codes follow document order: all unchanged.
		nix.tedDoc = oldTED
	}

	// Survivor remap: node ids at or past the removed region shift by delta;
	// ids inside the region cannot occur for untouched labels (when
	// delta != 0, Touched covers every region label).
	for l, ns := range oldNodes {
		if touched[l] {
			continue
		}
		moved := ns
		if delta != 0 {
			moved = make([]tree.NodeID, len(ns))
			for i, n := range ns {
				if int(n) >= spec.Start+spec.OldLen {
					n += tree.NodeID(delta)
				}
				moved[i] = n
			}
		}
		nix.labelNodes[l] = moved
		if nix.xasr != nil && delta != 0 {
			nix.labelRows[l] = nix.xasr.SubRelation("R_"+l, moved)
		}
	}
	// Masks are remapped from their own bits, not from labelNodes: LabelMask
	// caches a mask without materializing the node list, so an untouched
	// label may be warm in oldMasks only.  Under a shift, region bits cannot be
	// set for an untouched label (Touched covers every region label), so every
	// set bit is a survivor: before the region it stays, at or past the
	// region's end it shifts by delta.
	oldN := old.t.Len()
	for l, m := range oldMasks {
		if touched[l] {
			continue
		}
		if delta == 0 {
			nix.labelMasks[l] = m
			continue
		}
		nm := bitset.New(nt.Len())
		for i := 0; i < oldN; i++ {
			if !m.Get(i) {
				continue
			}
			if i < spec.Start+spec.OldLen {
				nm.Set(i)
			} else {
				nm.Set(i + delta)
			}
		}
		nix.labelMasks[l] = nm
	}
	if delta == 0 {
		// Without a shift every untouched label's rows are bit-identical (its
		// nodes kept their label lists, so even the lab codes agree): the
		// cached side relations are shared as they are, whether or not the
		// XASR itself was materialized, and none is rebuilt ahead of use.
		for l, r := range oldRows {
			if !touched[l] {
				nix.labelRows[l] = r
			}
		}
	}

	// Pair relations: a cached (axis, from, to) closure survives iff both
	// sides are untouched labels.  An empty side ranges over the whole
	// document, so it counts as touched by every edit the index can see.
	old.pairMu.RLock()
	old.pairs.Each(func(k pairKey, r *relstore.Relation) bool {
		if touched[k.from] || touched[k.to] || ((k.from == "" || k.to == "") && !unseen) {
			return true
		}
		if delta == 0 {
			nix.pairs.Add(k, r)
			return true
		}
		a, b, ok := r.IntColumns(0, 1)
		if !ok {
			return true
		}
		moved := relstore.NewPairs("pairs", "from_pre", "to_pre")
		shift := func(v int64) int64 {
			if int(v) > spec.Start+spec.OldLen {
				return v + int64(delta)
			}
			return v
		}
		for i := range a {
			moved.AppendPair(shift(a[i]), shift(b[i]))
		}
		nix.pairs.Add(k, moved)
		return true
	})
	old.pairMu.RUnlock()

	// Enforcement point for the carry-over rules above: even if a future
	// change accidentally copies a touched-label artifact, it is dropped here
	// rather than served stale.
	nix.ReleaseLabels(spec.Touched...)
	return nix
}

// patchedMulti recomputes the multi-label classification after a splice.  If
// the old tree was single-labeled, only the inserted region can introduce a
// multi-labeled node; if it was multi-labeled, the witness may have lived in
// the removed region, so the whole new tree is rescanned — unless no label
// list changed at all.
func patchedMulti(old *Index, nt *tree.Tree, spec PatchSpec) bool {
	if spec.unseen() {
		return old.multi
	}
	if !old.multi {
		for v := tree.NodeID(spec.Start); int(v) < min(spec.Start+spec.NewLen, nt.Len()); v++ {
			if len(nt.Labels(v)) > 1 {
				return true
			}
		}
		return false
	}
	for n := range tree.NodeID(nt.Len()) {
		if len(nt.Labels(n)) > 1 {
			return true
		}
	}
	return false
}

// ReleaseLabels drops every cached artifact keyed by one of the given labels
// — node lists, masks, side relations, and any structural-join
// pair relation with a matching or empty ("whole document") side — plus the
// TED postorder view, whose label codes embed the dropped labels.  Unlike
// Release it leaves all other labels' artifacts in place.  It is the
// targeted-invalidation primitive behind Patch: labels removed by a diff must
// not leak cached state into the patched index.  Safe for concurrent use.
func (ix *Index) ReleaseLabels(labels ...string) {
	if len(labels) == 0 {
		return
	}
	drop := make(map[string]bool, len(labels))
	for _, l := range labels {
		drop[l] = true
	}
	ix.mu.Lock()
	for l := range drop {
		delete(ix.labelNodes, l)
		delete(ix.labelMasks, l)
		delete(ix.labelRows, l)
	}
	ix.tedDoc = nil
	ix.mu.Unlock()
	ix.pairMu.Lock()
	ix.pairs.RemoveFunc(func(k pairKey) bool {
		return k.from == "" || k.to == "" || drop[k.from] || drop[k.to]
	})
	ix.pairMu.Unlock()
}
