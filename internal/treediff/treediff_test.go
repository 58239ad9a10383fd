package treediff

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
)

// buildTree constructs a tree from a sexpr plus optional per-preorder text.
func buildTree(t *testing.T, sexpr string, text map[int]string) *tree.Tree {
	t.Helper()
	tr, err := tree.ParseSexpr(sexpr)
	if err != nil {
		t.Fatalf("ParseSexpr(%q): %v", sexpr, err)
	}
	if len(text) == 0 {
		return tr
	}
	// Rebuild through a Builder to attach text (ParseSexpr has no text syntax).
	b := tree.NewBuilder()
	for i := 0; i < tr.Len(); i++ {
		n := tree.NodeID(i)
		var id tree.NodeID
		if p := tr.Parent(n); p == tree.InvalidNode {
			id = b.AddRoot(tr.Labels(n)...)
		} else {
			id = b.AddChild(p, tr.Labels(n)...)
		}
		if txt, ok := text[i]; ok {
			b.SetText(id, txt)
		}
	}
	return b.MustBuild()
}

func TestCanonicalRoundTrip(t *testing.T) {
	cases := []*tree.Tree{
		tree.MustParseSexpr("a"),
		tree.MustParseSexpr("a(b(a c) a(b d))"),
		tree.MustParseSexpr("a(b+c+d(e) _ f)"),
		buildTree(t, "a(b c)", map[int]string{1: `quotes " and (parens)`, 2: "line\nbreak"}),
		buildTree(t, "item(name keyword)", map[int]string{0: "=", 1: `"`}),
	}
	for _, tr := range cases {
		c := Canonical(tr)
		back, err := ParseCanonical(c)
		if err != nil {
			t.Fatalf("ParseCanonical(%q): %v", c, err)
		}
		if !Equal(tr, back) {
			t.Fatalf("round trip of %q lost information: got %q", c, Canonical(back))
		}
		if again := Canonical(back); again != c {
			t.Fatalf("canonical form not a fixpoint: %q vs %q", c, again)
		}
	}
}

func TestParseCanonicalRejects(t *testing.T) {
	for _, bad := range []string{
		"", "(", ")", `("a"`, `("a"))`, `("a")x`, `("a"=)`, `("a"="")`,
		`("a)`, `("a"("b")`, "x", strings.Repeat("(", maxCanonDepth+2),
	} {
		if _, err := ParseCanonical(bad); err == nil {
			t.Errorf("ParseCanonical(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestDiffIdentical(t *testing.T) {
	a := tree.MustParseSexpr("a(b(c) d)")
	b := tree.MustParseSexpr("a(b(c) d)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindNone || !sc.ShapePreserving || sc.OldLen != 0 || sc.NewLen != 0 {
		t.Fatalf("identical trees: got %+v ok=%v", sc, ok)
	}
	if len(sc.Touched) != 0 {
		t.Fatalf("identical trees touched %v", sc.Touched)
	}
}

func TestDiffRelabel(t *testing.T) {
	a := tree.MustParseSexpr("a(b(c) d)")
	b := tree.MustParseSexpr("a(b(x) d)")
	sc, ok := Diff(a, b)
	if !ok {
		t.Fatal("relabel diff not found")
	}
	if sc.Kind != KindRelabel || !sc.ShapePreserving {
		t.Fatalf("got kind %v shape=%v", sc.Kind, sc.ShapePreserving)
	}
	if sc.Start != 2 || sc.OldLen != 1 || sc.NewLen != 1 {
		t.Fatalf("got splice [%d,+%d->+%d]", sc.Start, sc.OldLen, sc.NewLen)
	}
	if want := []string{"c", "x"}; !reflect.DeepEqual(sc.Touched, want) {
		t.Fatalf("touched %v, want %v", sc.Touched, want)
	}
}

func TestDiffRootRelabelPatches(t *testing.T) {
	a := tree.MustParseSexpr("a(b c)")
	b := tree.MustParseSexpr("z(b c)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindRelabel || !sc.ShapePreserving {
		t.Fatalf("root rename should be a shape-preserving relabel, got %+v ok=%v", sc, ok)
	}
	if sc.Start != 0 || sc.OldLen != 1 {
		t.Fatalf("got splice [%d,+%d]", sc.Start, sc.OldLen)
	}
}

func TestDiffTextOnly(t *testing.T) {
	a := buildTree(t, "a(b c)", map[int]string{1: "old"})
	b := buildTree(t, "a(b c)", map[int]string{1: "new"})
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindRelabel || !sc.ShapePreserving {
		t.Fatalf("text edit: got %+v ok=%v", sc, ok)
	}
	if sc.Touched != nil {
		t.Fatalf("touched %v, want none: no label's extension changed", sc.Touched)
	}
}

// TestDiffTouched pins which labels a script reports as touched: for a
// shape-preserving script the old and new labels of the nodes whose label
// list changed (none at all for a text-only edit), for a shifting script every
// label of either region.
func TestDiffTouched(t *testing.T) {
	cases := []struct {
		name     string
		old, new *tree.Tree
		kind     Kind
		shape    bool
		touched  []string
	}{
		{
			name:  "text-only edit",
			old:   buildTree(t, "r(item+@id(name keyword) item)", map[int]string{3: "old"}),
			new:   buildTree(t, "r(item+@id(name keyword) item)", map[int]string{3: "new"}),
			kind:  KindRelabel,
			shape: true,
		},
		{
			name:  "two text edits spanning labelled nodes",
			old:   buildTree(t, "r(a b c)", map[int]string{1: "x", 3: "y"}),
			new:   buildTree(t, "r(a b c)", map[int]string{1: "u", 3: "v"}),
			kind:  KindRelabel,
			shape: true,
		},
		{
			name:    "relabel of one multi-labelled node",
			old:     tree.MustParseSexpr("r(item+@id(name keyword) item+@n(name))"),
			new:     tree.MustParseSexpr("r(entry+@id(name keyword) item+@n(name))"),
			kind:    KindRelabel,
			shape:   true,
			touched: []string{"@id", "entry", "item"},
		},
		{
			name:    "relabel beside a text edit",
			old:     buildTree(t, "r(a b c)", map[int]string{1: "x"}),
			new:     buildTree(t, "r(a b d)", map[int]string{1: "y"}),
			kind:    KindRelabel,
			shape:   true,
			touched: []string{"c", "d"},
		},
		{
			name:    "label dropped from a node",
			old:     tree.MustParseSexpr("r(a+x b)"),
			new:     tree.MustParseSexpr("r(a b)"),
			kind:    KindRelabel,
			shape:   true,
			touched: []string{"a", "x"},
		},
		{
			name:    "insert covers the region",
			old:     tree.MustParseSexpr("r(a(x) b)"),
			new:     tree.MustParseSexpr("r(a(x) q+@k(y z) b)"),
			kind:    KindInsert,
			touched: []string{"@k", "q", "y", "z"},
		},
		{
			name:    "delete covers the region",
			old:     tree.MustParseSexpr("r(a q+@k(y z) b)"),
			new:     tree.MustParseSexpr("r(a b)"),
			kind:    KindDelete,
			touched: []string{"@k", "q", "y", "z"},
		},
		{
			name:    "same-size replace covers both regions",
			old:     tree.MustParseSexpr("r(a(x y) b)"),
			new:     tree.MustParseSexpr("r(a(z(w)) b)"),
			kind:    KindReplace,
			touched: []string{"w", "x", "y", "z"},
		},
	}
	for _, tc := range cases {
		sc, ok := Diff(tc.old, tc.new)
		if !ok {
			t.Errorf("%s: no script", tc.name)
			continue
		}
		if sc.Kind != tc.kind || sc.ShapePreserving != tc.shape {
			t.Errorf("%s: kind %v shape=%v, want %v shape=%v", tc.name, sc.Kind, sc.ShapePreserving, tc.kind, tc.shape)
		}
		if !reflect.DeepEqual(sc.Touched, tc.touched) {
			t.Errorf("%s: touched %v, want %v", tc.name, sc.Touched, tc.touched)
		}
	}
}

func TestDiffInsert(t *testing.T) {
	a := tree.MustParseSexpr("r(a(x) b)")
	b := tree.MustParseSexpr("r(a(x) q(y z) b)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindInsert {
		t.Fatalf("insert: got %+v ok=%v", sc, ok)
	}
	if sc.Start != 3 || sc.OldLen != 0 || sc.NewLen != 3 {
		t.Fatalf("got splice [%d,+%d->+%d]", sc.Start, sc.OldLen, sc.NewLen)
	}
	if want := []string{"q", "y", "z"}; !reflect.DeepEqual(sc.Touched, want) {
		t.Fatalf("touched %v, want %v", sc.Touched, want)
	}
}

func TestDiffAppendKeyword(t *testing.T) {
	a := tree.MustParseSexpr("site(item(name keyword))")
	b := tree.MustParseSexpr("site(item(name keyword keyword))")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindInsert || sc.OldLen != 0 || sc.NewLen != 1 {
		t.Fatalf("append: got %+v ok=%v", sc, ok)
	}
}

func TestDiffDelete(t *testing.T) {
	a := tree.MustParseSexpr("r(a q(y z) b)")
	b := tree.MustParseSexpr("r(a b)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindDelete {
		t.Fatalf("delete: got %+v ok=%v", sc, ok)
	}
	if sc.Start != 2 || sc.OldLen != 3 || sc.NewLen != 0 {
		t.Fatalf("got splice [%d,+%d->+%d]", sc.Start, sc.OldLen, sc.NewLen)
	}
}

func TestDiffReplace(t *testing.T) {
	a := tree.MustParseSexpr("r(a(x y) b)")
	b := tree.MustParseSexpr("r(a(z(w)) b)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindReplace || sc.ShapePreserving {
		t.Fatalf("replace: got %+v ok=%v", sc, ok)
	}
	if sc.Start < 1 || sc.Start > 2 {
		t.Fatalf("splice start %d outside the edited subtree", sc.Start)
	}
}

func TestDiffDeltaShift(t *testing.T) {
	// Insert in the middle: every survivor after the splice shifts by delta.
	a := tree.MustParseSexpr("r(a b c)")
	b := tree.MustParseSexpr("r(a q(s) b c)")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindInsert || sc.Delta() != 2 {
		t.Fatalf("middle insert: got %+v ok=%v", sc, ok)
	}
}

func TestDiffFallsBackOnScatteredEdit(t *testing.T) {
	// Two label changes in different subtrees: the bounding interval spans
	// top-level nodes with different parents, so no single splice exists.
	a := tree.MustParseSexpr("r(a(x) b(y))")
	b := tree.MustParseSexpr("r(a(x q) b(y q))")
	if sc, ok := Diff(a, b); ok {
		t.Fatalf("scattered edit unexpectedly diffed: %+v", sc)
	}
}

func TestDiffMultiLabelAndTouched(t *testing.T) {
	a := tree.MustParseSexpr("r(item+@id(name))")
	b := tree.MustParseSexpr("r(item+@id(name keyword))")
	sc, ok := Diff(a, b)
	if !ok || sc.Kind != KindInsert {
		t.Fatalf("got %+v ok=%v", sc, ok)
	}
	if want := []string{"keyword"}; !reflect.DeepEqual(sc.Touched, want) {
		t.Fatalf("touched %v, want %v", sc.Touched, want)
	}
}

func TestEqual(t *testing.T) {
	a := buildTree(t, "a(b c)", map[int]string{1: "t"})
	b := buildTree(t, "a(b c)", map[int]string{1: "t"})
	c := buildTree(t, "a(b c)", map[int]string{2: "t"})
	if !Equal(a, b) {
		t.Fatal("equal trees reported unequal")
	}
	if Equal(a, c) {
		t.Fatal("unequal trees reported equal")
	}
	if Equal(a, tree.MustParseSexpr("a(b(c))")) {
		t.Fatal("different shapes reported equal")
	}
}
