package index

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/tree"
	"repro/internal/workload"
)

// imageByStepFunc is the definition Image must agree with: the union of the
// axis's per-node enumeration over the set, as ranks.
func imageByStepFunc(t *tree.Tree, a tree.Axis, ranks []int) bitset.Bits {
	want := bitset.New(t.Len())
	for _, r := range ranks {
		t.StepFunc(a, t.NodeAtPre(r+1), func(m tree.NodeID) bool {
			want.Set(t.Pre(m) - 1)
			return true
		})
	}
	return want
}

func checkImage(t *testing.T, name string, tr *tree.Tree, a tree.Axis, ranks []int) {
	t.Helper()
	pv := New(tr).PreView()
	s, got := bitset.New(tr.Len()), bitset.New(tr.Len())
	for _, r := range ranks {
		s.Set(r)
	}
	visited := pv.Image(a, s, got)
	if want := imageByStepFunc(tr, a, ranks); !got.Equal(want) {
		t.Fatalf("%s: %v of ranks %v on %s\nimage    %v\nstepfunc %v", name, a, ranks, tr,
			got.ToBools(tr.Len()), want.ToBools(tr.Len()))
	}
	if want := s.Count(); a != tree.Preceding && visited != want {
		t.Fatalf("%s: %v of ranks %v reported %d visits, want %d", name, a, ranks, visited, want)
	}
}

// canonical rebuilds tr in document order, so that NodeIDs are preorder
// ranks (the view's Identity case, which every parsed document is).
func canonical(tr *tree.Tree) *tree.Tree { return tree.MustParseSexpr(tr.String()) }

// TestImageMatchesStepFunc is the differential test of the shared image
// algebra: for all fifteen axes (Self among them), Image of a set equals the
// union of tree.StepFunc over its members — on random sets over random trees,
// with NodeIDs both in and out of preorder, and on the hand cases interval
// code gets wrong.
func TestImageMatchesStepFunc(t *testing.T) {
	axes := tree.AllAxes()
	if len(axes) != 15 {
		t.Fatalf("%d axes, want all fifteen", len(axes))
	}
	outOfOrder := 0
	for seed := int64(0); seed < 40; seed++ {
		scrambled := workload.RandomTree(workload.TreeSpec{Nodes: 1 + int(seed*7%90), MaxFanout: int(seed % 4), Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for _, tr := range []*tree.Tree{scrambled, canonical(scrambled)} {
			if id := New(tr).PreView().Identity; tr != scrambled && !id {
				t.Fatalf("seed %d: canonical tree is not Identity", seed)
			} else if !id {
				outOfOrder++
			}
			for _, density := range []float64{0.05, 0.3, 1} {
				var ranks []int
				for r := 0; r < tr.Len(); r++ {
					if rng.Float64() < density {
						ranks = append(ranks, r)
					}
				}
				for _, a := range axes {
					checkImage(t, fmt.Sprintf("seed %d", seed), tr, a, ranks)
				}
			}
		}
	}
	if outOfOrder < 20 {
		t.Fatalf("only %d of 40 random trees had NodeIDs out of preorder", outOfOrder)
	}

	// site=0 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8
	hand := tree.MustParseSexpr("site(a(b(c d) e) f(g) h)")
	last := hand.Len() - 1
	for name, ranks := range map[string][]int{
		"empty set":              nil,
		"root only":              {0},
		"last rank only":         {last},
		"nested subtrees":        {1, 2, 3},    // b and c lie inside a: the covered skip
		"adjacent subtrees":      {1, 6},       // f starts where a's interval ends
		"nested then adjacent":   {2, 3, 5, 6}, // e follows b's interval inside a
		"preceding of rank 0":    {0},
		"following of last leaf": {last},
		"first and last":         {0, last},
		"siblings":               {1, 6, 8},
		"leaf and its parent":    {6, 7},
		"every rank":             {0, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		for _, a := range axes {
			checkImage(t, name, hand, a, ranks)
		}
	}
	// The one-node tree: every interval is degenerate.
	for _, a := range axes {
		checkImage(t, "single node", tree.MustParseSexpr("a"), a, []int{0})
	}
}

// TestAndNodeMask: a NodeID-indexed label mask restricts a rank set to the
// same nodes whether or not NodeIDs are ranks.
func TestAndNodeMask(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		scrambled := workload.RandomTree(workload.TreeSpec{Nodes: 5 + int(seed*11%80), Seed: seed, Alphabet: []string{"a", "b", "c"}})
		for _, tr := range []*tree.Tree{scrambled, canonical(scrambled)} {
			ix := New(tr)
			s := bitset.New(tr.Len())
			s.SetAll(tr.Len())
			s.Clear(0)
			ix.PreView().AndNodeMask(tr, s, ix.LabelMask("b"))
			for r, v := range tr.PreOrder() {
				if want := r != 0 && tr.HasLabel(v, "b"); s.Get(r) != want {
					t.Fatalf("seed %d (identity %v): rank %d kept=%v, want %v on %s", seed, ix.PreView().Identity, r, s.Get(r), want, tr)
				}
			}
		}
	}
}
