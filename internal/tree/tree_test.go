package tree

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// figure1Tree builds the 6-node tree of Figure 1 of the paper:
//
//	n1
//	├── n2
//	├── n3
//	│   ├── n5
//	│   └── n6
//	└── n4
//
// The nodes are added breadth-first, out of document order, so the returned
// ids are the construction IDs translated through Builder.Final.
func figure1Tree(t *testing.T) (*Tree, map[string]NodeID) {
	t.Helper()
	b := NewBuilder()
	ids := map[string]NodeID{}
	ids["n1"] = b.AddRoot("n1")
	ids["n2"] = b.AddChild(ids["n1"], "n2")
	ids["n3"] = b.AddChild(ids["n1"], "n3")
	ids["n4"] = b.AddChild(ids["n1"], "n4")
	ids["n5"] = b.AddChild(ids["n3"], "n5")
	ids["n6"] = b.AddChild(ids["n3"], "n6")
	tr := b.MustBuild()
	for name, id := range ids {
		ids[name] = b.Final(id)
	}
	return tr, ids
}

// figure2Tree builds the 7-node tree of Figure 2 (a): labels with pre:post
// indices 1:7:a, 2:3:b, 3:1:a, 4:2:c, 5:6:a, 6:4:b, 7:5:d.
func figure2Tree(t *testing.T) *Tree {
	t.Helper()
	return MustParseSexpr("a(b(a c) a(b d))")
}

func TestBuilderBasics(t *testing.T) {
	tr, ids := figure1Tree(t)
	if got, want := tr.Len(), 6; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if tr.Root() != ids["n1"] {
		t.Errorf("Root = %d, want %d", tr.Root(), ids["n1"])
	}
	if tr.Parent(ids["n5"]) != ids["n3"] {
		t.Errorf("Parent(n5) = %d, want n3", tr.Parent(ids["n5"]))
	}
	if tr.FirstChild(ids["n1"]) != ids["n2"] {
		t.Errorf("FirstChild(n1) = %d, want n2", tr.FirstChild(ids["n1"]))
	}
	if kids := tr.Children(ids["n1"]); kids[len(kids)-1] != ids["n4"] {
		t.Errorf("last child of n1 = %d, want n4", kids[len(kids)-1])
	}
	if tr.NextSibling(ids["n2"]) != ids["n3"] {
		t.Errorf("NextSibling(n2) = %d, want n3", tr.NextSibling(ids["n2"]))
	}
	if tr.PrevSibling(ids["n4"]) != ids["n3"] {
		t.Errorf("PrevSibling(n4) = %d, want n3", tr.PrevSibling(ids["n4"]))
	}
	if tr.NextSibling(ids["n4"]) != InvalidNode {
		t.Errorf("NextSibling(n4) should be invalid")
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Errorf("Build of empty tree should fail")
	}
	b2 := NewBuilder()
	b2.AddRoot("a")
	if _, err := b2.Build(); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := b2.Build(); err == nil {
		t.Errorf("second Build should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AddRoot twice should panic")
			}
		}()
		b3 := NewBuilder()
		b3.AddRoot("a")
		b3.AddRoot("b")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("AddChild of unknown parent should panic")
			}
		}()
		b4 := NewBuilder()
		b4.AddRoot("a")
		b4.AddChild(77, "b")
	}()
}

func TestFigure2PrePostIndexes(t *testing.T) {
	tr := figure2Tree(t)
	// The paper's Figure 2 (b) XASR rows: (pre, post, parent_pre, label).
	want := []struct {
		pre, post, parentPre int
		label                string
	}{
		{1, 7, 0, "a"},
		{2, 3, 1, "b"},
		{3, 1, 2, "a"},
		{4, 2, 2, "c"},
		{5, 6, 1, "a"},
		{6, 4, 5, "b"},
		{7, 5, 5, "d"},
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for _, w := range want {
		n := NodeID(w.pre - 1)
		if tr.Pre(n) != w.pre {
			t.Errorf("pre(%d) = %d, want %d", n, tr.Pre(n), w.pre)
		}
		if tr.Post(n) != w.post {
			t.Errorf("post(%d) = %d, want %d", w.pre, tr.Post(n), w.post)
		}
		if p := tr.Parent(n); p != NodeID(w.parentPre-1) {
			t.Errorf("parent of pre %d = %d, want pre %d", w.pre, p, w.parentPre)
		}
		if tr.Label(n) != w.label {
			t.Errorf("label(%d) = %q, want %q", w.pre, tr.Label(n), w.label)
		}
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot("a", "item")
	c := b.AddChild(r, "b")
	b.AddLabel(c, "keyword")
	b.SetText(c, "hello")
	tr := b.MustBuild()
	if !tr.HasLabel(r, "a") || !tr.HasLabel(r, "item") {
		t.Errorf("root should carry labels a and item")
	}
	if tr.HasLabel(r, "b") {
		t.Errorf("root should not carry label b")
	}
	if !tr.HasLabel(c, "keyword") {
		t.Errorf("AddLabel did not attach label")
	}
	if tr.Text(c) != "hello" {
		t.Errorf("Text = %q, want hello", tr.Text(c))
	}
	if tr.Label(c) != "b" {
		t.Errorf("primary label = %q, want b", tr.Label(c))
	}
	alpha := tr.LabelAlphabet()
	if strings.Join(alpha, ",") != "a,b,item,keyword" {
		t.Errorf("LabelAlphabet = %v", alpha)
	}
	if got := tr.NodesWithLabel("a"); len(got) != 1 || got[0] != r {
		t.Errorf("NodesWithLabel(a) = %v", got)
	}
	if got := tr.NodesWithLabel("zzz"); len(got) != 0 {
		t.Errorf("NodesWithLabel(zzz) = %v, want empty", got)
	}
}

func TestUnlabeledNodeLabel(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot()
	tr := b.MustBuild()
	if tr.Label(r) != "" {
		t.Errorf("Label of unlabeled node = %q, want empty", tr.Label(r))
	}
	if tr.String() != "_" {
		t.Errorf("String = %q, want _", tr.String())
	}
}

func TestPredicates(t *testing.T) {
	tr, ids := figure1Tree(t)
	if !tr.IsRoot(ids["n1"]) || tr.IsRoot(ids["n2"]) {
		t.Errorf("IsRoot wrong")
	}
	if !tr.IsLeaf(ids["n2"]) || tr.IsLeaf(ids["n3"]) {
		t.Errorf("IsLeaf wrong")
	}
	if !tr.IsFirstSibling(ids["n2"]) || tr.IsFirstSibling(ids["n3"]) {
		t.Errorf("IsFirstSibling wrong")
	}
	if !tr.IsLastSibling(ids["n4"]) || tr.IsLastSibling(ids["n3"]) {
		t.Errorf("IsLastSibling wrong")
	}
}

func TestChildrenAndCounts(t *testing.T) {
	tr, ids := figure1Tree(t)
	kids := tr.Children(ids["n1"])
	if len(kids) != 3 || kids[0] != ids["n2"] || kids[1] != ids["n3"] || kids[2] != ids["n4"] {
		t.Errorf("Children(n1) = %v", kids)
	}
	if tr.NumChildren(ids["n1"]) != 3 || tr.NumChildren(ids["n2"]) != 0 {
		t.Errorf("NumChildren wrong")
	}
	if tr.SubtreeSize(ids["n3"]) != 3 {
		t.Errorf("SubtreeSize(n3) = %d, want 3", tr.SubtreeSize(ids["n3"]))
	}
	if tr.Height() != 3 {
		t.Errorf("Height = %d, want 3", tr.Height())
	}
	if tr.Depth(ids["n5"]) != 2 {
		t.Errorf("Depth(n5) = %d, want 2", tr.Depth(ids["n5"]))
	}
}

func TestOrders(t *testing.T) {
	tr, ids := figure1Tree(t)
	// Preorder: n1 n2 n3 n5 n6 n4, which is NodeID order.
	wantPre := []string{"n1", "n2", "n3", "n5", "n6", "n4"}
	for i, name := range wantPre {
		if got := ids[name]; got != NodeID(i) || tr.Pre(got) != i+1 {
			t.Errorf("%s is node %d with pre %d, want node %d", name, got, tr.Pre(got), i)
		}
	}
	// Postorder: n2 n5 n6 n3 n4 n1.
	byPost := tr.NodesInOrder(PostOrder)
	for i, name := range []string{"n2", "n5", "n6", "n3", "n4", "n1"} {
		if got := byPost[i]; got != ids[name] || tr.Post(got) != i+1 {
			t.Errorf("postorder %d is node %v with post %d, want %s", i+1, got, tr.Post(got), name)
		}
	}
	// BFLR: n1 n2 n3 n4 n5 n6.
	byBFLR := tr.NodesInOrder(BFLROrder)
	for i, name := range []string{"n1", "n2", "n3", "n4", "n5", "n6"} {
		if got := byBFLR[i]; got != ids[name] {
			t.Errorf("bflr %d is node %v, want %s", i+1, got, name)
		}
	}
	if !tr.Less(PreOrder, ids["n3"], ids["n4"]) {
		t.Errorf("n3 <pre n4 should hold")
	}
	if !tr.Less(PostOrder, ids["n3"], ids["n1"]) {
		t.Errorf("n3 <post n1 should hold")
	}
	if !tr.Less(BFLROrder, ids["n4"], ids["n5"]) {
		t.Errorf("n4 <bflr n5 should hold")
	}
}

func TestNodesDocumentOrder(t *testing.T) {
	tr := figure2Tree(t)
	nodes := tr.Nodes()
	if len(nodes) != tr.Len() {
		t.Fatalf("Nodes len = %d", len(nodes))
	}
	for i, n := range nodes {
		if tr.Pre(n) != i+1 {
			t.Errorf("Nodes()[%d] has pre %d", i, tr.Pre(n))
		}
	}
}

func TestStringAndSexprRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"a(b)",
		"a(b c d)",
		"a(b(a c) a(b d))",
		"x(y(z(w)))",
		"r(a+b(c) _)",
	}
	for _, s := range cases {
		tr, err := ParseSexpr(s)
		if err != nil {
			t.Fatalf("ParseSexpr(%q): %v", s, err)
		}
		if got := tr.String(); got != s {
			t.Errorf("round trip of %q = %q", s, got)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", s, err)
		}
	}
}

func TestParseSexprErrors(t *testing.T) {
	bad := []string{"", "(", "a(", "a(b", "a)b", "a b", "a()x"}
	for _, s := range bad {
		if _, err := ParseSexpr(s); err == nil {
			t.Errorf("ParseSexpr(%q) should fail", s)
		}
	}
}

// TestParseSexprDepthLimit: a chain exactly maxSexprDepth nodes deep parses;
// one node deeper is a parse error rather than unbounded recursion.
func TestParseSexprDepthLimit(t *testing.T) {
	chain := func(depth int) string {
		return strings.Repeat("a(", depth-1) + "a" + strings.Repeat(")", depth-1)
	}
	tr, err := ParseSexpr(chain(maxSexprDepth))
	if err != nil {
		t.Fatalf("depth %d: %v", maxSexprDepth, err)
	}
	if tr.Len() != maxSexprDepth {
		t.Fatalf("depth %d: parsed %d nodes", maxSexprDepth, tr.Len())
	}
	for _, depth := range []int{maxSexprDepth + 1, 1 << 20} {
		if _, err := ParseSexpr(chain(depth)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("depth %d: err = %v, want a nesting error", depth, err)
		}
	}
}

func TestIndentedAndDOT(t *testing.T) {
	tr := figure2Tree(t)
	ind := tr.Indented()
	if !strings.Contains(ind, "1:7:a") || !strings.Contains(ind, "7:5:d") {
		t.Errorf("Indented output missing pre:post:label rows:\n%s", ind)
	}
	dot := tr.DOT()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "FirstChild") || !strings.Contains(dot, "NextSibling") {
		t.Errorf("DOT output incomplete:\n%s", dot)
	}
}

func TestEqual(t *testing.T) {
	a := MustParseSexpr("a(b c)")
	b := MustParseSexpr("a(b c)")
	c := MustParseSexpr("a(c b)")
	d := MustParseSexpr("a(b c d)")
	if !Equal(a, b) {
		t.Errorf("identical trees not Equal")
	}
	if Equal(a, c) {
		t.Errorf("differently-labeled trees Equal")
	}
	if Equal(a, d) {
		t.Errorf("differently-sized trees Equal")
	}
}

// randomTree builds a random tree with n nodes over the given alphabet.
func randomTree(rng *rand.Rand, n int, alphabet []string) *Tree {
	b := NewBuilder()
	b.AddRoot(alphabet[rng.Intn(len(alphabet))])
	for i := 1; i < n; i++ {
		parent := NodeID(rng.Intn(i))
		b.AddChild(parent, alphabet[rng.Intn(len(alphabet))])
	}
	return b.MustBuild()
}

func TestValidateRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "c"}
	for i := 0; i < 50; i++ {
		tr := randomTree(rng, 1+rng.Intn(60), alphabet)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random tree %d invalid: %v\n%s", i, err, tr)
		}
	}
}

// TestValidateRejectsNonPreorderIDs: a parent column whose nodes fall
// outside their parent's interval, and a size column whose children overrun
// it, are reported, since every rank-space reader (Image, the evaluators, the
// diff) relies on the numbering.
func TestValidateRejectsNonPreorderIDs(t *testing.T) {
	// a=0 b=1 c=2 d=3: b's subtree is [1, 2].
	tr := MustParseSexpr("a(b(c) d)")
	tr.parent[3] = 1
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "document order") {
		t.Errorf("d moved under b: Validate = %v, want a document-order error", err)
	}
	tr = MustParseSexpr("a(b(c) d)")
	tr.size[2] = 2 // c claims d, which lies outside b
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "overrun") {
		t.Errorf("c sized over d: Validate = %v, want an overrun error", err)
	}
}

func TestDeepTreeNoStackOverflow(t *testing.T) {
	// A path of 200k nodes: Build must not recurse.
	b := NewBuilder()
	prev := b.AddRoot("a")
	const n = 200_000
	for i := 1; i < n; i++ {
		prev = b.AddChild(prev, "a")
	}
	tr := b.MustBuild()
	if tr.Height() != n {
		t.Errorf("Height = %d, want %d", tr.Height(), n)
	}
	leaf := NodeID(n - 1)
	if tr.Post(leaf) != 1 {
		t.Errorf("deep leaf post = %d, want 1", tr.Post(leaf))
	}
	if tr.Depth(leaf) != n-1 {
		t.Errorf("deep leaf depth = %d, want %d", tr.Depth(leaf), n-1)
	}
}

// TestMarkCode holds the one-pass scan of the code column to HasCode on a
// tree with multi-labeled nodes, for every code and NoCode.
func TestMarkCode(t *testing.T) {
	tr := MustParseSexpr("a+b(b(a+c c) a b+a+c(c))")
	for c := NoCode; int(c) < tr.Dict().Len(); c++ {
		m := bitset.New(tr.Len())
		tr.MarkCode(c, m)
		for v := range NodeID(tr.Len()) {
			if m.Get(int(v)) != tr.HasCode(v, c) {
				t.Errorf("code %d, node %d: marked %v, HasCode %v", c, v, m.Get(int(v)), tr.HasCode(v, c))
			}
		}
	}
}
