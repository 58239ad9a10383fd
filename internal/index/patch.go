package index

import (
	"repro/internal/bitset"
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
//     label of every node whose label list changed.  An edit of text alone
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

// Patch derives the index of nt from an existing index by carrying what the
// default routes read across the edit, instead of rebuilding it:
//
//   - label node lists and masks for labels NOT in spec.Touched are carried
//     over, remapping node ids past the splice by Delta (shared outright when
//     Delta is 0);
//   - the TED view, the nodes ordered by subtree size, depends on the shape
//     alone and is shared by every shape-preserving edit, relabels included;
//   - the touched labels' artifacts are dropped and rebuilt lazily on first
//     use, exactly as after a Release.
//
// The old index is never mutated: readers still running against it see a
// fully consistent document.  The result is a brand-new Index over nt with
// fresh counters.
func Patch(old *Index, nt *tree.Tree, spec PatchSpec) *Index {
	touched := make(map[string]bool, len(spec.Touched))
	for _, l := range spec.Touched {
		touched[l] = true
	}
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

	nix := newIndex(nt, patchedMulti(old, nt, spec))

	old.mu.RLock()
	if spec.ShapePreserving {
		// The view is a function of the tree's shape: unchanged.
		nix.tedDoc = old.tedDoc
	}
	// The carried labels' artifacts share one block.
	warm := 0
	for _, a := range old.labels {
		if a != nil {
			warm++
		}
	}
	block := make([]labelArtifacts, 0, warm)
	for c, a := range old.labels {
		nc, ok := carried(c)
		if a == nil || !ok {
			continue
		}
		block = append(block, carry(*a, old.t.Len(), nt.Len(), spec))
		nix.labels[nc] = &block[len(block)-1]
	}
	old.mu.RUnlock()

	// Enforcement point for the carry-over rules above: even if a future
	// change accidentally copies a touched-label artifact, it is dropped here
	// rather than served stale.
	nix.ReleaseLabels(spec.Touched...)
	return nix
}

// carry returns an untouched label's node list and mask in the patched index.
// Survivor remap: node ids at or past the removed region shift by delta; ids
// inside the region cannot occur for an untouched label (when delta != 0,
// Touched covers every region label).  Without a shift both are shared as
// they are.
func carry(a labelArtifacts, oldN, newN int, spec PatchSpec) labelArtifacts {
	delta := spec.Delta()
	if delta == 0 {
		return a
	}
	end := spec.Start + spec.OldLen
	var out labelArtifacts
	if a.nodes != nil {
		out.nodes = make([]tree.NodeID, len(a.nodes))
		for i, n := range a.nodes {
			if int(n) >= end {
				n += tree.NodeID(delta)
			}
			out.nodes[i] = n
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

// ReleaseLabels drops the node lists and masks of the given labels.  Unlike
// Release it leaves all other labels' artifacts in place, and the TED view,
// which sees no label.  It is the targeted-invalidation primitive behind
// Patch: labels removed by a diff must not leak cached state into the
// patched index.  Safe for concurrent use.
func (ix *Index) ReleaseLabels(labels ...string) {
	d := ix.t.Dict()
	ix.mu.Lock()
	for _, l := range labels {
		if c := d.Code(l); c != tree.NoCode {
			ix.labels[c] = nil
		}
	}
	ix.mu.Unlock()
}
