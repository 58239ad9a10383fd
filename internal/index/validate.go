package index

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/labeling"
	"repro/internal/relstore"
	"repro/internal/ted"
	"repro/internal/tree"
)

// Validate checks every cached artifact against the tree it claims to index
// and returns the first inconsistency found.  It exists for the incremental-
// update harness: after a Patch, a spliced XASR, remapped label caches,
// carried-over pair relations and a carried-over TED view must be
// indistinguishable from a fresh build.  It checks what is
// there — an XASR is materialized only to recompute cached pair relations —
// and is intended for tests, not hot paths.
func (ix *Index) Validate() error {
	t := ix.t
	m := t.Len()
	ix.mu.RLock()
	x := ix.xasr
	ix.mu.RUnlock()
	if x != nil {
		if err := validateXASR(x, t); err != nil {
			return err
		}
	}

	ix.mu.RLock()
	labels := make([]labelArtifacts, len(ix.labels))
	for c := range ix.labels {
		labels[c] = ix.cached(tree.Code(c))
	}
	tedDoc := ix.tedDoc
	ix.mu.RUnlock()

	if tedDoc != nil && !slices.Equal(tedDoc.BySize(), ted.NewDoc(t).BySize()) {
		return fmt.Errorf("ted: cached size order differs from the tree's")
	}

	d := t.Dict()
	for c, a := range labels {
		l := d.Name(tree.Code(c))
		want := t.NodesWithCode(tree.Code(c))
		if ns := a.nodes; ns != nil {
			if len(ns) != len(want) {
				return fmt.Errorf("label %q: %d cached nodes, want %d", l, len(ns), len(want))
			}
			for i := range ns {
				if ns[i] != want[i] {
					return fmt.Errorf("label %q: cached node[%d] = %d, want %d", l, i, ns[i], want[i])
				}
			}
		}
		if mk := a.mask; mk != nil {
			for i := 0; i < m; i++ {
				if mk.Get(i) != t.HasCode(tree.NodeID(i), tree.Code(c)) {
					return fmt.Errorf("label %q: mask bit %d = %v, disagrees with tree", l, i, mk.Get(i))
				}
			}
		}
		if r := a.rows; r != nil {
			tuples := r.Tuples()
			if len(tuples) != len(want) {
				return fmt.Errorf("label rows %q: %d rows, want %d", l, len(tuples), len(want))
			}
			for i, row := range tuples {
				if row[0] != int64(t.Pre(want[i])) {
					return fmt.Errorf("label rows %q[%d]: pre %d, want %d", l, i, row[0], t.Pre(want[i]))
				}
				if row[1] != int64(t.Post(want[i])) {
					return fmt.Errorf("label rows %q[%d]: post %d, want %d", l, i, row[1], t.Post(want[i]))
				}
			}
		}
	}

	// Pair relations: recompute each cached closure from scratch over
	// label-complete sides and require an exact match.
	type pairEnt struct {
		k pairKey
		r *relstore.Relation
	}
	var ents []pairEnt
	ix.pairMu.RLock()
	ix.pairs.Each(func(k pairKey, r *relstore.Relation) bool {
		ents = append(ents, pairEnt{k, r})
		return true
	})
	ix.pairMu.RUnlock()
	if len(ents) > 0 {
		x = ix.XASR()
	}
	for _, e := range ents {
		from := x.Relation()
		if e.k.from != "" {
			from = x.SubRelation("from", t.NodesWithLabel(e.k.from))
		}
		to := x.Relation()
		if e.k.to != "" {
			to = x.SubRelation("to", t.NodesWithLabel(e.k.to))
		}
		want := x.StructuralJoinSides(e.k.axis, from, to)
		got := e.r
		if got.Len() != want.Len() {
			return fmt.Errorf("pairs %v(%q,%q): %d pairs, want %d", e.k.axis, e.k.from, e.k.to, got.Len(), want.Len())
		}
		ga, gb, ok1 := got.IntColumns(0, 1)
		wa, wb, ok2 := want.IntColumns(0, 1)
		if !ok1 || !ok2 {
			return fmt.Errorf("pairs %v(%q,%q): not columnar", e.k.axis, e.k.from, e.k.to)
		}
		for i := range ga {
			if ga[i] != wa[i] || gb[i] != wb[i] {
				return fmt.Errorf("pairs %v(%q,%q)[%d]: (%d,%d), want (%d,%d)",
					e.k.axis, e.k.from, e.k.to, i, ga[i], gb[i], wa[i], wb[i])
			}
		}
	}
	return nil
}

// validateXASR checks a materialized XASR row by row against the tree.
func validateXASR(x *labeling.XASR, t *tree.Tree) error {
	m := t.Len()
	rows := x.Relation().Tuples()
	if len(rows) != m {
		return fmt.Errorf("xasr: %d rows for %d nodes", len(rows), m)
	}
	postSeen := bitset.New(m + 1)
	for i, row := range rows {
		if row[0] != int64(i+1) {
			return fmt.Errorf("xasr row %d: pre %d, want %d", i, row[0], i+1)
		}
		v := tree.NodeID(i)
		if row[1] < 1 || row[1] > int64(m) {
			return fmt.Errorf("xasr row %d: post %d out of range [1,%d]", i, row[1], m)
		}
		if postSeen.Get(int(row[1])) {
			return fmt.Errorf("xasr row %d: duplicate post %d", i, row[1])
		}
		postSeen.Set(int(row[1]))
		if row[1] != int64(t.Post(v)) {
			return fmt.Errorf("xasr row %d: post %d, want %d", i, row[1], t.Post(v))
		}
		wantPar := int64(0)
		if p := t.Parent(v); p != tree.InvalidNode {
			wantPar = int64(t.Pre(p))
		}
		if row[2] != wantPar {
			return fmt.Errorf("xasr row %d: parent_pre %d, want %d", i, row[2], wantPar)
		}
		if lab := x.Dict().String(row[3]); lab != t.Label(v) {
			return fmt.Errorf("xasr row %d: label %q, want %q", i, lab, t.Label(v))
		}
	}
	return nil
}
