package labeling

import (
	"repro/internal/relstore"
	"repro/internal/tree"
)

// PatchXASR derives the XASR of nt from the XASR of the old tree, given a
// verified single-splice edit script (see internal/treediff): old preorder
// rows [start, start+oldLen) are replaced by the new tree's rows
// [start, start+newLen).  Only the region rows are recomputed from nt; the
// surviving prefix and suffix rows are copied with their pre/post/parent_pre
// values shifted by delta = newLen-oldLen where the splice displaced them.
//
// The shift rules rely on the splice invariants established by treediff.Diff:
// both regions are forests of complete, consecutive-sibling subtrees under a
// common parent preceding the splice (or the edit is shape-preserving, in
// which case delta is 0 and every shift is a no-op), so the region occupies a
// contiguous postorder interval and no survivor is parented inside it.
//
//   - prefix rows (pre <= start): pre and parent_pre unchanged; post shifts
//     by delta iff it exceeds postKeep, the last postorder rank preceding the
//     region (prefix rows past postKeep are exactly the region's ancestors).
//   - suffix rows (pre > start+oldLen): pre += delta; post += delta
//     (a survivor after the region in preorder is neither its ancestor nor
//     its descendant, so it follows the whole region in postorder too);
//     parent_pre += delta iff it points past the splice start.
//
// The label dictionary is cloned so re-interning labels that only the new
// region uses never mutates the old XASR, which concurrent readers may still
// hold.  The result is a fresh, immutable XASR bound to nt.
func PatchXASR(old *XASR, nt *tree.Tree, start, oldLen, newLen int) *XASR {
	delta := newLen - oldLen
	m := nt.Len()
	oPre, oPost, oPar, oLab := old.Cols()
	dict := old.dict.Clone()
	rel := relstore.NewRelation("R", ColPre, ColPost, ColParentPre, ColLab)
	backing := make(relstore.Tuple, 4*m)

	// postKeep: posts <= postKeep are untouched by the splice.  Derived from
	// the old region when one exists, from the new region on a pure insert
	// (the inserted forest lands at the same structural position, so the old
	// suffix posts all exceed it).  Irrelevant when delta is 0.
	postKeep := int64(m)
	if delta != 0 {
		if oldLen > 0 {
			min := oPost[start]
			for i := start + 1; i < start+oldLen; i++ {
				if oPost[i] < min {
					min = oPost[i]
				}
			}
			postKeep = min - 1
		} else {
			min := int64(nt.Post(tree.NodeID(start)))
			for i := start + 1; i < start+newLen; i++ {
				if p := int64(nt.Post(tree.NodeID(i))); p < min {
					min = p
				}
			}
			postKeep = min - 1
		}
	}

	for i := 0; i < start; i++ {
		row := backing[4*i : 4*i+4 : 4*i+4]
		row[0] = oPre[i]
		row[1] = oPost[i]
		if row[1] > postKeep {
			row[1] += int64(delta)
		}
		row[2] = oPar[i]
		row[3] = oLab[i]
		rel.InsertRow(row)
	}
	for i := start; i < start+newLen; i++ {
		v := tree.NodeID(i)
		row := backing[4*i : 4*i+4 : 4*i+4]
		row[0] = int64(i + 1)
		row[1] = int64(nt.Post(v))
		if p := nt.Parent(v); p != tree.InvalidNode {
			row[2] = int64(nt.Pre(p))
		}
		row[3] = dict.Code(nt.Label(v))
		rel.InsertRow(row)
	}
	for i := start + oldLen; i < old.tr.Len(); i++ {
		j := i + delta
		row := backing[4*j : 4*j+4 : 4*j+4]
		row[0] = oPre[i] + int64(delta)
		row[1] = oPost[i] + int64(delta)
		row[2] = oPar[i]
		if row[2] > int64(start) {
			row[2] += int64(delta)
		}
		row[3] = oLab[i]
		rel.InsertRow(row)
	}
	return &XASR{rel: rel, dict: dict, tr: nt, byLabel: map[string]*relstore.Relation{}}
}
