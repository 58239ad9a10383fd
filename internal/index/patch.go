package index

import (
	"repro/internal/bitset"
	"repro/internal/labeling"
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
//   - pair relations with a "" side, which see every node's labels, survive
//     only an edit the index cannot see, a shape-preserving one that touched
//     no label;
//   - the TED view, the nodes ordered by subtree size, depends on the shape
//     alone and is shared by every shape-preserving edit, relabels included;
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
	// Artifacts move by code.  A tree parsed against its predecessor's
	// dictionary keeps every code (remap is nil); otherwise each old code is
	// translated by name, and one the new dictionary lacks has no artifact to
	// carry.
	oldDict := old.t.Dict()
	remap := tree.Translate(oldDict, nt.Dict())
	carried := func(c int) (tree.Code, bool) {
		if touched[oldDict.Name(tree.Code(c))] {
			return tree.NoCode, false
		}
		if remap == nil {
			return tree.Code(c), true
		}
		return remap[c], remap[c] != tree.NoCode
	}

	nix := newIndex(nt, patchedMulti(old, nt, spec), cfg)

	old.mu.RLock()
	oldXASR, oldTED := old.xasr, old.tedDoc
	if oldXASR != nil {
		nix.xasr = labeling.PatchXASR(oldXASR, nt, spec.Start, spec.OldLen, spec.NewLen)
		nix.xasrBuilds.Add(1)
	}
	if spec.ShapePreserving {
		// The view is a function of the tree's shape: unchanged.
		nix.tedDoc = oldTED
	}
	for c, a := range old.labels {
		nc, ok := carried(c)
		if a == nil || !ok {
			continue
		}
		nix.labels[nc] = carry(*a, old.t.Len(), nt.Len(), spec, nix.xasr, oldDict.Name(tree.Code(c)))
	}
	old.mu.RUnlock()

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

// carry returns an untouched label's artifacts in the patched index.
// Survivor remap: node ids at or past the removed region shift by delta; ids
// inside the region cannot occur for an untouched label (when delta != 0,
// Touched covers every region label).  Without a shift every artifact is
// shared as it is — even the side relation's rows, whose lab codes agree
// because the label's nodes kept their label lists — and none is rebuilt
// ahead of use.
func carry(a labelArtifacts, oldN, newN int, spec PatchSpec, xasr *labeling.XASR, name string) *labelArtifacts {
	delta := spec.Delta()
	if delta == 0 {
		return &a
	}
	end := spec.Start + spec.OldLen
	out := &labelArtifacts{}
	if a.nodes != nil {
		out.nodes = make([]tree.NodeID, len(a.nodes))
		for i, n := range a.nodes {
			if int(n) >= end {
				n += tree.NodeID(delta)
			}
			out.nodes[i] = n
		}
		if xasr != nil {
			out.rows = xasr.SubRelation("R_"+name, out.nodes)
		}
	}
	// A mask is remapped from its own bits, not from the node list: CodeMask
	// caches a mask without materializing the list, so a label may be warm
	// in its mask only.  Under a shift every set bit is a survivor: before
	// the region it stays, at or past the region's end it shifts by delta.
	if a.mask != nil {
		out.mask = bitset.New(newN)
		for i := 0; i < oldN; i++ {
			if !a.mask.Get(i) {
				continue
			}
			if i < end {
				out.mask.Set(i)
			} else {
				out.mask.Set(i + delta)
			}
		}
	}
	return out
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
		return multiLabeled(nt, spec.Start, min(spec.Start+spec.NewLen, nt.Len()))
	}
	return multiLabeled(nt, 0, nt.Len())
}

// ReleaseLabels drops every cached artifact keyed by one of the given labels
// — node lists, masks, side relations, and any structural-join
// pair relation with a matching or empty ("whole document") side.  Unlike
// Release it leaves all other labels' artifacts in place, and the TED view,
// which sees no label.  It is the
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
	d := ix.t.Dict()
	ix.mu.Lock()
	for l := range drop {
		if c := d.Code(l); c != tree.NoCode {
			ix.labels[c] = nil
		}
	}
	ix.mu.Unlock()
	ix.pairMu.Lock()
	ix.pairs.RemoveFunc(func(k pairKey) bool {
		return k.from == "" || k.to == "" || drop[k.from] || drop[k.to]
	})
	ix.pairMu.Unlock()
}
