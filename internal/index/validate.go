package index

import (
	"fmt"
	"slices"

	"repro/internal/ted"
	"repro/internal/tree"
)

// Validate checks every artifact a Patch can carry — label node lists, label
// masks and the TED view — against the tree it claims to index and returns
// the first inconsistency found.  It exists for the incremental-update
// harness: after a Patch, remapped label caches and a carried-over TED view
// must be indistinguishable from a fresh build.  Validate is intended for
// tests, not hot paths.
func (ix *Index) Validate() error {
	t := ix.t
	m := t.Len()
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
		if ns := a.nodes; ns != nil {
			if want := t.NodesWithCode(tree.Code(c)); !slices.Equal(ns, want) {
				return fmt.Errorf("label %q: cached nodes %v, want %v", l, ns, want)
			}
		}
		if mk := a.mask; mk != nil {
			for i := 0; i < m; i++ {
				if mk.Get(i) != t.HasCode(tree.NodeID(i), tree.Code(c)) {
					return fmt.Errorf("label %q: mask bit %d = %v, disagrees with tree", l, i, mk.Get(i))
				}
			}
		}
	}
	return nil
}
