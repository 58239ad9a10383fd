package tree_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/tree"
	"repro/internal/workload"
)

// model is a tree as it was constructed: parent and labels per construction
// ID, children in the order they were added.
type model struct {
	parent   []tree.NodeID
	labels   [][]string
	children [][]tree.NodeID
}

func (m *model) add(b *tree.Builder, parent tree.NodeID, labels ...string) {
	var id tree.NodeID
	if parent == tree.InvalidNode {
		id = b.AddRoot(labels...)
	} else {
		id = b.AddChild(parent, labels...)
		m.children[parent] = append(m.children[parent], id)
	}
	m.parent = append(m.parent, parent)
	m.labels = append(m.labels, labels)
	m.children = append(m.children, nil)
}

// sexpr renders the construction in tree.String's syntax.
func (m *model) sexpr(v tree.NodeID) string {
	s := strings.Join(m.labels[v], "+")
	if s == "" {
		s = "_"
	}
	if len(m.children[v]) == 0 {
		return s
	}
	parts := make([]string, len(m.children[v]))
	for i, c := range m.children[v] {
		parts[i] = m.sexpr(c)
	}
	return s + "(" + strings.Join(parts, " ") + ")"
}

// checkPreorderIDs walks t through its links and requires the k-th node
// reached in document order to be NodeID k.
func checkPreorderIDs(t *testing.T, name string, tr *tree.Tree) {
	t.Helper()
	rank := tree.NodeID(0)
	var walk func(v tree.NodeID)
	walk = func(v tree.NodeID) {
		if v != rank || tr.Pre(v) != int(rank)+1 {
			t.Fatalf("%s: preorder rank %d is node %d (pre %d)", name, rank, v, tr.Pre(v))
		}
		rank++
		for c := tr.FirstChild(v); c != tree.InvalidNode; c = tr.NextSibling(c) {
			walk(c)
		}
	}
	walk(tr.Root())
	if int(rank) != tr.Len() {
		t.Fatalf("%s: walk reached %d of %d nodes", name, rank, tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	// Parsing the rendering builds in document order, which Build keeps as it
	// is: the renumbered tree must coincide with it node for node.
	if back := tree.MustParseSexpr(tr.String()); !tree.Equal(back, tr) || back.String() != tr.String() {
		t.Fatalf("%s: renumbered tree differs from its own rendering %s", name, tr)
	}
}

// TestBuildRenumbersToPreorder: whatever order a Builder receives its nodes
// in, the built tree's NodeID i is the node of preorder rank i, its rendering
// is the construction's, Validate passes, and Final maps every construction
// ID to the node that carries its labels and parent.  The navigation columns
// are then the rank-space view the evaluators read.
func TestBuildRenumbersToPreorder(t *testing.T) {
	// Children added to earlier siblings after later ones: construction IDs 3
	// and 4 end up at ranks 4 and 2.
	b := tree.NewBuilder()
	var m model
	m.add(b, tree.InvalidNode, "r")
	m.add(b, 0, "a")
	m.add(b, 0, "a")
	m.add(b, 2, "b")
	m.add(b, 1, "b")
	tr := b.MustBuild()
	if got, want := tr.String(), "r(a(b) a(b))"; got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
	for id, want := range []tree.NodeID{0, 1, 3, 4, 2} {
		if got := b.Final(tree.NodeID(id)); got != want {
			t.Errorf("Final(%d) = %d, want %d", id, got, want)
		}
	}

	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, m := tree.NewBuilder(), model{}
		m.add(b, tree.InvalidNode, "a")
		n := 1 + rng.Intn(80)
		for i := 1; i < n; i++ {
			labels := []string{"a", "b", "c"}[:rng.Intn(3)]
			m.add(b, tree.NodeID(rng.Intn(i)), labels...)
		}
		tr := b.MustBuild()
		name := fmt.Sprintf("seed %d", seed)
		if got, want := tr.String(), m.sexpr(0); got != want {
			t.Fatalf("%s: String = %s, construction renders %s", name, got, want)
		}
		for id := range tree.NodeID(n) {
			v := b.Final(id)
			wantParent := tree.InvalidNode
			if p := m.parent[id]; p != tree.InvalidNode {
				wantParent = b.Final(p)
			}
			if !slices.Equal(tr.Labels(v), m.labels[id]) || tr.Parent(v) != wantParent {
				t.Fatalf("%s: construction ID %d went to node %d with labels %v parent %d", name, id, v, tr.Labels(v), tr.Parent(v))
			}
		}
		checkPreorderIDs(t, name, tr)
	}

	for name, tr := range map[string]*tree.Tree{
		"scrambled": workload.ScrambledTree(300, 7),
		"site":      workload.SiteDocument(workload.DocSpec{Items: 40, Regions: 3, DescriptionDepth: 2, Seed: 3}),
		"complete":  workload.CompleteTree(3, 5, nil),
	} {
		checkPreorderIDs(t, name, tr)
	}

	// The columns are the rank view: site=0 item=1 name=2 keyword=3 gone=4
	// item=5 name=6 keyword=7.
	tr = tree.MustParseSexpr("site(item(name keyword(gone)) item(name keyword))")
	if tr.End(1) != 4 || tr.Parent(5) != 0 || tr.NextSibling(1) != 5 || tr.PrevSibling(5) != 1 ||
		tr.FirstChild(3) != 4 || tr.FirstChild(4) != tree.InvalidNode || tr.Parent(0) != tree.InvalidNode {
		t.Fatalf("unexpected columns on %s", tr)
	}
	tr = tree.MustParseSexpr("site(item(name) item(name keyword))")
	if tr.End(1) != 2 || tr.Parent(3) != 0 || tr.End(0) != tree.NodeID(tr.Len()-1) {
		t.Fatalf("unexpected columns on %s", tr)
	}
}

// imageByStepFunc is the definition Image must agree with: the union of the
// axis's per-node enumeration over the set.
func imageByStepFunc(t *tree.Tree, a tree.Axis, nodes []int) bitset.Bits {
	want := bitset.New(t.Len())
	for _, v := range nodes {
		t.StepFunc(a, tree.NodeID(v), func(m tree.NodeID) bool {
			want.Set(int(m))
			return true
		})
	}
	return want
}

func checkImage(t *testing.T, name string, tr *tree.Tree, a tree.Axis, nodes []int) {
	t.Helper()
	s, got := bitset.New(tr.Len()), bitset.New(tr.Len())
	for _, v := range nodes {
		s.Set(v)
	}
	visited := tr.Image(a, s, got)
	if want := imageByStepFunc(tr, a, nodes); !got.Equal(want) {
		t.Fatalf("%s: %v of nodes %v on %s\nimage    %v\nstepfunc %v", name, a, nodes, tr,
			got.ToBools(tr.Len()), want.ToBools(tr.Len()))
	}
	if want := s.Count(); a != tree.Preceding && visited != want {
		t.Fatalf("%s: %v of nodes %v reported %d visits, want %d", name, a, nodes, visited, want)
	}
}

// TestImageMatchesStepFunc is the differential test of the shared image
// algebra: for all fifteen axes (Self among them), Image of a set equals the
// union of tree.StepFunc over its members — on random sets over random trees
// built out of document order, and on the hand cases interval code gets
// wrong.
func TestImageMatchesStepFunc(t *testing.T) {
	axes := tree.AllAxes()
	if len(axes) != 15 {
		t.Fatalf("%d axes, want all fifteen", len(axes))
	}
	for seed := int64(0); seed < 40; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 1 + int(seed*7%90), MaxFanout: int(seed % 4), Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for _, density := range []float64{0.05, 0.3, 1} {
			var nodes []int
			for v := 0; v < tr.Len(); v++ {
				if rng.Float64() < density {
					nodes = append(nodes, v)
				}
			}
			for _, a := range axes {
				checkImage(t, fmt.Sprintf("seed %d", seed), tr, a, nodes)
			}
		}
	}

	// site=0 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8
	hand := tree.MustParseSexpr("site(a(b(c d) e) f(g) h)")
	last := hand.Len() - 1
	for name, nodes := range map[string][]int{
		"empty set":              nil,
		"root only":              {0},
		"last node only":         {last},
		"nested subtrees":        {1, 2, 3},    // b and c lie inside a: the covered skip
		"adjacent subtrees":      {1, 6},       // f starts where a's interval ends
		"nested then adjacent":   {2, 3, 5, 6}, // e follows b's interval inside a
		"preceding of node 0":    {0},
		"following of last leaf": {last},
		"first and last":         {0, last},
		"siblings":               {1, 6, 8},
		"leaf and its parent":    {6, 7},
		"every node":             {0, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		for _, a := range axes {
			checkImage(t, name, hand, a, nodes)
		}
	}
	// The one-node tree: every interval is degenerate.
	for _, a := range axes {
		checkImage(t, "single node", tree.MustParseSexpr("a"), a, []int{0})
	}
}

// FuzzBuildOrder checks Build's ranking against the construction it was
// given.  Byte i adds construction ID i+1 as the next child of an earlier
// node, chosen by the byte, so children are mostly added out of document
// order; its top bits pick up to two labels.  The built tree must validate,
// render as the construction does, map every construction ID through Final
// to a node with its labels and parent, and agree on the computed links and
// orders with a reference from the construction's explicit child lists:
// recursive pre- and postorder walks and a breadth-first queue.
func FuzzBuildOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 5, 3, 0, 7})
	f.Add([]byte{0x40, 0x81, 0xc2, 0x03, 0x44, 0x85, 0xc6, 0x07, 0x48, 0x89})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 300 {
			data = data[:300]
		}
		b, m := tree.NewBuilder(), model{}
		m.add(b, tree.InvalidNode, "r")
		for i, x := range data {
			m.add(b, tree.NodeID(int(x)%(i+1)), []string{"a", "b"}[:int(x>>6)%3]...)
		}
		tr := b.MustBuild()
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		if got, want := tr.String(), m.sexpr(0); got != want {
			t.Fatalf("String = %s, construction renders %s", got, want)
		}

		// The reference orders, over construction IDs.
		var pre, post []tree.NodeID
		var walk func(v tree.NodeID)
		walk = func(v tree.NodeID) {
			pre = append(pre, v)
			for _, c := range m.children[v] {
				walk(c)
			}
			post = append(post, v)
		}
		walk(0)
		bflr := []tree.NodeID{0}
		for i := 0; i < len(bflr); i++ {
			bflr = append(bflr, m.children[bflr[i]]...)
		}
		rank := make([]tree.NodeID, len(pre))
		for r, id := range pre {
			rank[id] = tree.NodeID(r)
		}
		final := func(id tree.NodeID) tree.NodeID {
			if id == tree.InvalidNode {
				return id
			}
			return rank[id]
		}
		for id := range tree.NodeID(len(pre)) {
			v := b.Final(id)
			if v != rank[id] || !slices.Equal(tr.Labels(v), m.labels[id]) || tr.Parent(v) != final(m.parent[id]) {
				t.Fatalf("construction ID %d went to node %d with labels %v parent %d, want node %d", id, v, tr.Labels(v), tr.Parent(v), rank[id])
			}
			first, next, prev := tree.InvalidNode, tree.InvalidNode, tree.InvalidNode
			if kids := m.children[id]; len(kids) > 0 {
				first = kids[0]
			}
			if p := m.parent[id]; p != tree.InvalidNode {
				sibs := m.children[p]
				i := slices.Index(sibs, id)
				if i > 0 {
					prev = sibs[i-1]
				}
				if i+1 < len(sibs) {
					next = sibs[i+1]
				}
			}
			if tr.FirstChild(v) != final(first) || tr.NextSibling(v) != final(next) || tr.PrevSibling(v) != final(prev) {
				t.Fatalf("node %d: first child %d, next %d, prev %d; want %d, %d, %d",
					v, tr.FirstChild(v), tr.NextSibling(v), tr.PrevSibling(v), final(first), final(next), final(prev))
			}
		}
		for i, id := range post {
			if v := final(id); tr.Post(v) != i+1 {
				t.Fatalf("node %d: post %d, want %d", v, tr.Post(v), i+1)
			}
		}
		for o, ids := range map[tree.Order][]tree.NodeID{tree.PostOrder: post, tree.BFLROrder: bflr} {
			want := make([]tree.NodeID, len(ids))
			for i, id := range ids {
				want[i] = final(id)
			}
			if got := tr.NodesInOrder(o); !slices.Equal(got, want) {
				t.Fatalf("NodesInOrder(%v) = %v, want %v", o, got, want)
			}
		}
	})
}
