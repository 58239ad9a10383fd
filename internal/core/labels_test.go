package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/treediff"
)

func TestPreparedQueryLabels(t *testing.T) {
	e := New(tree.MustParseSexpr("site(item(name keyword) item(name))"))
	cases := []struct {
		lang, text string
		want       []string
	}{
		{LangXPath, "//item[name]/keyword", []string{"item", "keyword", "name"}},
		{LangXPath, "//*", []string{}},
		{LangCQ, "Q(x) :- Lab[item](x), Child(x, y), Lab[name](y).", []string{"item", "name"}},
		{LangDatalog, "Q(x) :- Lab[keyword](x).\n?- Q.", []string{"keyword"}},
		{LangTwig, "//item[name]", []string{"item", "name"}},
		{LangStream, "/site//keyword", []string{"keyword", "site"}},
		{LangSimilar, "k=2 item(name)", []string{"item", "name"}},
	}
	for _, tc := range cases {
		pq, err := e.Prepare(tc.lang, tc.text)
		if err != nil {
			t.Fatalf("Prepare(%s, %q): %v", tc.lang, tc.text, err)
		}
		if got := pq.Labels(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Labels(%s, %q) = %v, want %v", tc.lang, tc.text, got, tc.want)
		}
	}
}

// TestDatalogReprepareSameShape: a datalog plan carried across
// shape-preserving edits disjoint from the program's labels is the same
// compiled program on every patched engine (nothing is parsed, translated or
// compiled again) and answers against each new document exactly like a cold
// prepare, edit after edit.
func TestDatalogReprepareSameShape(t *testing.T) {
	revs := []*tree.Tree{
		tree.MustParseSexpr("site(item(name keyword) item(other keyword))"),
		tree.MustParseSexpr("site(item(name keyword) item(title keyword))"),
		tree.MustParseSexpr("site(item(name keyword) item(name2 keyword))"),
	}
	const prog = "Q(x) :- Lab[keyword](y), NextSibling(x, y).\n?- Q."
	e := New(revs[0])
	c, err := Compile(LangDatalog, prog)
	if err != nil {
		t.Fatal(err)
	}
	if c.Clauses() != 0 {
		t.Fatalf("datalog plan reports %d clauses, want 0", c.Clauses())
	}
	phases := c.Phases()
	for i, newT := range revs[1:] {
		sc, ok := treediff.Diff(revs[i], newT)
		if !ok || !sc.ShapePreserving {
			t.Fatalf("edit %d: expected shape-preserving diff, got %+v ok=%v", i, sc, ok)
		}
		e = e.Patched(newT, index.PatchSpec{
			Start: sc.Start, OldLen: sc.OldLen, NewLen: sc.NewLen,
			Touched: sc.Touched, ShapePreserving: sc.ShapePreserving,
		})
		res, _, err := c.Exec(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Phases(), phases) {
			t.Fatalf("edit %d: the plan was compiled again: %v -> %v", i, phases, c.Phases())
		}
		cold, err := New(newT).Prepare(LangDatalog, prog)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := cold.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Nodes) != 2 || !reflect.DeepEqual(res.Nodes, want.Nodes) {
			t.Fatalf("edit %d: carried answers %v, cold prepare answers %v", i, res.Nodes, want.Nodes)
		}
	}
}
