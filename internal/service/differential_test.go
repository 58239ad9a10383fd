package service

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/treediff"
)

// The differential oracle: a service with patching forced on
// (WithPatchRatio(1)) must be observationally identical to a service with
// patching forced off (WithPatchRatio(0), the pre-incremental rebuild path)
// across every prepare route, for any old/new document pair.  The rebuild
// service is the trusted baseline — its engine is built from scratch exactly
// as Add builds one — so any divergence convicts the patch path.

// identLabel gates which document labels are turned into queries: the query
// languages need plain identifiers (arbitrary fuzz-generated labels could be
// syntax, not data).
var identLabel = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*$`)

// equivalenceQueries derives a query battery over the labels of both
// revisions, covering all six prepare routes (xpath, twig, cq, datalog,
// stream, similar) plus a label-free wildcard.
func equivalenceQueries(oldT, newT *tree.Tree) []struct{ lang, text string } {
	set := map[string]bool{}
	for _, t := range []*tree.Tree{oldT, newT} {
		for i := 0; i < t.Len(); i++ {
			for _, l := range t.Labels(tree.NodeID(i)) {
				if identLabel.MatchString(l) {
					set[l] = true
				}
			}
		}
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	if len(labels) > 3 {
		labels = labels[:3]
	}
	qs := []struct{ lang, text string }{
		{core.LangXPath, "//*"},
	}
	for _, l := range labels {
		qs = append(qs,
			struct{ lang, text string }{core.LangXPath, "//" + l},
			struct{ lang, text string }{core.LangTwig, "//" + l},
			struct{ lang, text string }{core.LangCQ, fmt.Sprintf("Q(x) :- Lab[%s](x).", l)},
			struct{ lang, text string }{core.LangDatalog, fmt.Sprintf("P(x) :- Lab[%s](x).\n?- P.", l)},
			struct{ lang, text string }{core.LangStream, "//" + l},
			struct{ lang, text string }{core.LangSimilar, "k=3 " + l},
		)
	}
	if len(labels) >= 2 {
		qs = append(qs, struct{ lang, text string }{
			core.LangCQ,
			fmt.Sprintf("Q(x, y) :- Lab[%s](x), Child(x, y), Lab[%s](y).", labels[0], labels[1]),
		})
	}
	return qs
}

// renderResult flattens a Result into a comparable string; the oracle demands
// byte identity, not just same-cardinality.
func renderResult(res *core.Result) string {
	return fmt.Sprintf("nodes=%v answers=%v hits=%v", res.Nodes, res.Answers, res.Hits)
}

// assertPatchEquivalence runs the differential oracle for one old->new edit:
// both services serve oldT, warm the full query battery, update to newT (one
// patching when it can, one always rebuilding), and must agree byte for byte
// on every query before and after — and the patched service's index must pass
// the structural invariant check.  It runs twice: once with newT's own label
// dictionary, whose codes the diff and the patch translate by name, and once
// with newT rebuilt on oldT's dictionary, as a PUT parses it, whose codes
// they use as they are.  Shared by the property test below and by
// FuzzDiffPatchEquivalence.
func assertPatchEquivalence(t testing.TB, oldT, newT *tree.Tree) {
	t.Helper()
	assertPatchEquivalenceOnce(t, oldT, newT)
	assertPatchEquivalenceOnce(t, oldT, onDict(newT, oldT.Dict()))
}

// onDict returns a copy of t whose label codes are drawn from d.
func onDict(t *tree.Tree, d *tree.Dict) *tree.Tree {
	b := tree.NewBuilderDict(d)
	for v := range tree.NodeID(t.Len()) {
		id := b.AddCoded(t.Parent(v))
		for _, l := range t.Labels(v) {
			b.AddCode(id, b.Code(l))
		}
		if txt := t.Text(v); txt != "" {
			b.SetText(id, txt)
		}
	}
	return b.MustBuild()
}

func assertPatchEquivalenceOnce(t testing.TB, oldT, newT *tree.Tree) {
	t.Helper()
	queries := equivalenceQueries(oldT, newT)
	patched := New(WithPatchRatio(1))
	rebuilt := New(WithPatchRatio(0))
	for _, s := range []*Service{patched, rebuilt} {
		if err := s.Add("d", oldT); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	check := func(when string) {
		t.Helper()
		for _, q := range queries {
			pres, _, perr := patched.Query(ctx, "d", q.lang, q.text)
			rres, _, rerr := rebuilt.Query(ctx, "d", q.lang, q.text)
			if (perr == nil) != (rerr == nil) {
				t.Fatalf("%s %s %q: patched err=%v, rebuilt err=%v", when, q.lang, q.text, perr, rerr)
			}
			if perr != nil {
				continue // both reject the query the same way; nothing to compare
			}
			if got, want := renderResult(pres), renderResult(rres); got != want {
				t.Fatalf("%s %s %q diverged:\npatched: %s\nrebuilt: %s\nold: %s\nnew: %s",
					when, q.lang, q.text, got, want, oldT, newT)
			}
		}
	}
	check("pre-update")

	po, err := patched.UpdateDoc("d", newT)
	if err != nil {
		t.Fatalf("patched update: %v", err)
	}
	ro, err := rebuilt.UpdateDoc("d", newT)
	if err != nil {
		t.Fatalf("rebuild update: %v", err)
	}
	if ro.Patched {
		t.Fatalf("oracle service patched despite WithPatchRatio(0): %+v", ro)
	}
	check(fmt.Sprintf("post-update[%s/%s]", po.Mode(), po.Kind))

	// An edit that changes no label list touches nothing the index or any
	// evaluator reads, whatever labels the edited nodes carry: it must patch,
	// and every carried plan must count as skipped.
	if textOnlyEdit(oldT, newT) {
		if !po.Patched || po.PlansCarried == 0 || po.PlansSkipped != po.PlansCarried {
			t.Fatalf("text-only edit outcome %+v, want a patch with every warm plan skipped\nold: %s\nnew: %s",
				po, treediff.Canonical(oldT), treediff.Canonical(newT))
		}
	}

	// Structural invariants of the (possibly patched) index, with its caches
	// warmed by the query battery above.
	eng, err := patched.Engine("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Index().Validate(); err != nil {
		t.Fatalf("patched index invalid after %s/%s update:\n%v\nold: %s\nnew: %s",
			po.Mode(), po.Kind, err, oldT, newT)
	}
}

// textOnlyEdit reports whether the two revisions differ, agree in shape and
// agree in every node's label list — that is, differ in text alone.
func textOnlyEdit(oldT, newT *tree.Tree) bool {
	sc, ok := treediff.Diff(oldT, newT)
	return ok && sc.Kind == treediff.KindRelabel && sc.ShapePreserving && sc.Touched == nil
}

// onode is the mutable tree the random-edit generator works on; rendered to a
// tree.Tree through the Builder for each revision.
type onode struct {
	label string
	text  string
	kids  []*onode
}

func (n *onode) build() *tree.Tree {
	b := tree.NewBuilder()
	var add func(n *onode, parent tree.NodeID)
	add = func(n *onode, parent tree.NodeID) {
		var id tree.NodeID
		if parent == tree.InvalidNode {
			id = b.AddRoot(n.label)
		} else {
			id = b.AddChild(parent, n.label)
		}
		if n.text != "" {
			b.SetText(id, n.text)
		}
		for _, k := range n.kids {
			add(k, id)
		}
	}
	add(n, tree.InvalidNode)
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tr
}

func (n *onode) clone() *onode {
	c := &onode{label: n.label, text: n.text, kids: make([]*onode, len(n.kids))}
	for i, k := range n.kids {
		c.kids[i] = k.clone()
	}
	return c
}

// flatten returns every node with its parent and child index, in preorder;
// the root has parent nil.
func (n *onode) flatten() []struct {
	node   *onode
	parent *onode
	idx    int
} {
	var out []struct {
		node   *onode
		parent *onode
		idx    int
	}
	var walk func(n, p *onode, idx int)
	walk = func(n, p *onode, idx int) {
		out = append(out, struct {
			node   *onode
			parent *onode
			idx    int
		}{n, p, idx})
		for i, k := range n.kids {
			walk(k, n, i)
		}
	}
	walk(n, nil, 0)
	return out
}

var oracleLabels = []string{"a", "b", "c", "d", "e"}

func randOnode(r *rand.Rand, depth int) *onode {
	n := &onode{label: oracleLabels[r.Intn(len(oracleLabels))]}
	if r.Intn(4) == 0 {
		n.text = fmt.Sprintf("t%d", r.Intn(3))
	}
	if depth > 0 {
		for i := 0; i < r.Intn(4); i++ {
			n.kids = append(n.kids, randOnode(r, depth-1))
		}
	}
	return n
}

// randomEdit applies one random edit (relabel, text edit, subtree insert,
// subtree delete, subtree replace, text edit under a queried label) to a copy
// of root and returns it.
func randomEdit(r *rand.Rand, root *onode) *onode {
	c := root.clone()
	nodes := c.flatten()
	pick := nodes[r.Intn(len(nodes))]
	switch op := r.Intn(6); {
	case op == 5:
		// A text edit, never a no-op, on a node whose label the query battery
		// mentions on every route (equivalenceQueries takes the first three
		// labels in sorted order) whenever the document has one: the edit whose
		// label every warm plan intersects and that none has to notice.
		for _, i := range r.Perm(len(nodes)) {
			if l := nodes[i].node.label; l == "a" || l == "b" || l == "c" {
				pick = nodes[i]
				break
			}
		}
		pick.node.text = fmt.Sprintf("edited%d", r.Intn(100))
	case op == 0: // relabel (occasionally to a label new to the document)
		if r.Intn(4) == 0 {
			pick.node.label = fmt.Sprintf("z%d", r.Intn(2))
		} else {
			pick.node.label = oracleLabels[r.Intn(len(oracleLabels))]
		}
	case op == 1: // text edit
		pick.node.text = fmt.Sprintf("t%d", r.Intn(3))
	case op == 2: // insert a fresh subtree at a random child slot
		sub := randOnode(r, 2)
		at := r.Intn(len(pick.node.kids) + 1)
		pick.node.kids = append(pick.node.kids[:at],
			append([]*onode{sub}, pick.node.kids[at:]...)...)
	case op == 3 && pick.parent != nil: // delete the picked subtree
		pick.parent.kids = append(pick.parent.kids[:pick.idx], pick.parent.kids[pick.idx+1:]...)
	case op == 4 && pick.parent != nil: // replace the picked subtree
		pick.parent.kids[pick.idx] = randOnode(r, 2)
	default: // delete/replace landed on the root: relabel it instead
		pick.node.label = oracleLabels[r.Intn(len(oracleLabels))]
	}
	return c
}

// TestDifferentialUpdateOracle is the property test of satellite #1: random
// documents under random edits, patch path vs rebuild oracle, byte-identical
// answers on all six prepare routes plus index structural invariants.  Single
// edits mostly take the patch path; the compound-edit rounds mostly diff to
// ok=false and prove the rebuild fallback agrees too.
func TestDifferentialUpdateOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential oracle is a many-query property test")
	}
	r := rand.New(rand.NewSource(60))
	textOnly := 0
	for i := 0; i < 36; i++ {
		oldN := randOnode(r, 3)
		newN := randomEdit(r, oldN)
		if i%3 == 2 { // compound edit: usually not a single splice
			newN = randomEdit(r, newN)
			newN = randomEdit(r, newN)
		}
		oldT, newT := oldN.build(), newN.build()
		t.Logf("round %d: %d -> %d nodes", i, oldT.Len(), newT.Len())
		if textOnlyEdit(oldT, newT) {
			textOnly++
		}
		assertPatchEquivalence(t, oldT, newT)
	}
	if textOnly < 3 {
		t.Errorf("only %d text-only rounds: the generator no longer reaches the edit that invalidates nothing", textOnly)
	}
}

// TestUpdateDocOutcomes pins the patch-vs-rebuild decision itself: kind
// classification, the ratio gate, and the outcome counters.
func TestUpdateDocOutcomes(t *testing.T) {
	mk := func(s string) *tree.Tree { return tree.MustParseSexpr(s) }
	s := New() // DefaultPatchRatio
	if err := s.Add("d", mk("site(item(name keyword) item(name keyword) item(name keyword))")); err != nil {
		t.Fatal(err)
	}
	// One-node relabel: shape-preserving patch.
	o, err := s.UpdateDoc("d", mk("site(item(name keyword) item(title keyword) item(name keyword))"))
	if err != nil {
		t.Fatal(err)
	}
	if !o.Patched || o.Kind != "relabel" || o.Mode() != "patched" {
		t.Fatalf("relabel outcome = %+v (mode %s), want patched relabel", o, o.Mode())
	}
	// Whole-document rewrite: diff region exceeds the ratio, rebuild.
	o, err = s.UpdateDoc("d", mk("venue(talk(speaker) talk(speaker) talk(speaker))"))
	if err != nil {
		t.Fatal(err)
	}
	if o.Patched || o.Kind != "rebuild" || o.Mode() != "rebuilt" {
		t.Fatalf("rewrite outcome = %+v (mode %s), want rebuilt", o, o.Mode())
	}
	st := s.Stats()
	if st.PatchedUpdates != 1 || st.RebuildUpdates != 1 || st.Updates != 2 {
		t.Fatalf("stats = %+v, want 1 patched + 1 rebuilt of 2", st)
	}
	totals := s.UpdatePhaseTotals()
	for _, ph := range []string{"diff", "patch", "build", "swap"} {
		if totals[ph] <= 0 {
			t.Errorf("phase %q has no recorded time: %v", ph, totals)
		}
	}
	// WithPatchRatio(0) disables patching even for a one-node edit.
	off := New(WithPatchRatio(0))
	if err := off.Add("d", mk("a(b c)")); err != nil {
		t.Fatal(err)
	}
	o, err = off.UpdateDoc("d", mk("a(b d)"))
	if err != nil {
		t.Fatal(err)
	}
	if o.Patched {
		t.Fatalf("WithPatchRatio(0) still patched: %+v", o)
	}
}

// TestUpdateDocPatchesBuilderTree: a tree whose nodes were added out of
// document order is numbered in preorder all the same, so inserting one leaf
// mid-document is a single splice that patches, and afterwards every route
// answers exactly as on a fresh Add of the new revision.
func TestUpdateDocPatchesBuilderTree(t *testing.T) {
	build := func(leaf bool) *tree.Tree {
		rng := rand.New(rand.NewSource(5))
		b := tree.NewBuilder()
		b.AddRoot("a")
		for i := 1; i < 200; i++ {
			b.AddChild(tree.NodeID(rng.Intn(i)), []string{"a", "b", "c"}[rng.Intn(3)])
		}
		if leaf {
			b.AddChild(7, "d") // the last child of an early node
		}
		return b.MustBuild()
	}
	oldT, newT := build(false), build(true)
	if sc, ok := treediff.Diff(oldT, newT); !ok || sc.Kind != treediff.KindInsert || sc.Start >= oldT.Len() {
		t.Fatalf("want one leaf inserted mid-document, diff = %+v ok=%v", sc, ok)
	}

	ctx := context.Background()
	queries := equivalenceQueries(oldT, newT)
	svc, fresh := New(), New()
	if err := svc.Add("d", oldT); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Add("d", newT); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries { // warm plans and index artifacts
		if _, _, err := svc.Query(ctx, "d", q.lang, q.text); err != nil {
			t.Fatalf("%s %q: %v", q.lang, q.text, err)
		}
	}
	out, err := svc.UpdateDoc("d", newT)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Patched || out.Kind != "insert" {
		t.Fatalf("outcome %+v, want a patched insert", out)
	}
	for _, q := range queries {
		got, _, err := svc.Query(ctx, "d", q.lang, q.text)
		if err != nil {
			t.Fatalf("%s %q: %v", q.lang, q.text, err)
		}
		want, _, err := fresh.Query(ctx, "d", q.lang, q.text)
		if err != nil {
			t.Fatalf("%s %q on a fresh Add: %v", q.lang, q.text, err)
		}
		if g, w := renderResult(got), renderResult(want); g != w {
			t.Fatalf("%s %q after the patch:\n%s\nfresh Add:\n%s", q.lang, q.text, g, w)
		}
	}
	eng, err := svc.Engine("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Index().Validate(); err != nil {
		t.Fatalf("patched index invalid: %v", err)
	}
}

func TestLabelsDisjoint(t *testing.T) {
	cases := []struct {
		labels, touched []string
		want            bool
	}{
		{nil, []string{"a"}, false},       // unknown label set intersects everything
		{nil, nil, false},                 // even an empty edit, conservatively
		{[]string{}, []string{"a"}, true}, // wildcard-free empty set is disjoint
		{[]string{"a", "c"}, []string{"b"}, true},
		{[]string{"a", "c"}, []string{"c", "d"}, false},
		{[]string{"a"}, []string{}, true},
		{[]string{"a", "b", "z"}, []string{"c", "y", "z"}, false},
	}
	for _, tc := range cases {
		if got := labelsDisjoint(tc.labels, tc.touched); got != tc.want {
			t.Errorf("labelsDisjoint(%v, %v) = %v, want %v", tc.labels, tc.touched, got, tc.want)
		}
	}
}

// sexprOrSkip parses the fuzz engine's canonical-form candidate, skipping
// malformed or oversized inputs (the fuzzer's job is to find adversarial
// valid pairs, not to test the parser here — FuzzCanonicalRoundTrip does).
func sexprOrSkip(t *testing.T, s string, parse func(string) (*tree.Tree, error)) *tree.Tree {
	t.Helper()
	if len(s) > 4096 {
		t.Skip("oversized input")
	}
	tr, err := parse(s)
	if err != nil {
		t.Skip("unparsable input")
	}
	if tr.Len() > 300 {
		t.Skip("oversized tree")
	}
	return tr
}
