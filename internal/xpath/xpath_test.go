package xpath

import (
	"strings"
	"testing"

	"repro/internal/arccons"
	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/yannakakis"
)

func TestMain(m *testing.M) { poolcheck.Main(m, bitset.Outstanding) }

func paperTree() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func siteDoc() *tree.Tree {
	return workload.SiteDocument(workload.DocSpec{Items: 20, Regions: 3, DescriptionDepth: 2, Seed: 7})
}

func preSet(t *tree.Tree, ns NodeSet) map[int]bool {
	out := map[int]bool{}
	for _, n := range ns {
		out[t.Pre(n)] = true
	}
	return out
}

func TestParseAndString(t *testing.T) {
	cases := []string{
		"/descendant-or-self::*/child::a",
		"//a",
		"/a/b[c and not(d)]",
		"//item[name]/description//keyword",
		"//a | //b",
		"/a/b[lab() = item or c]",
		"//a[.//b]",
		"/a/..",
		"child::a[following-sibling::b]",
		"//a[b[c][d]]",
	}
	for _, s := range cases {
		e, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		// Render and re-parse: the round trip must be stable from the first
		// rendering onwards (the first rendering expands abbreviations).
		r1 := String(e)
		e2, err := Parse(r1)
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", r1, s, err)
			continue
		}
		if String(e2) != r1 {
			t.Errorf("unstable rendering: %q -> %q", r1, String(e2))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"//",
		"/a[",
		"/a[b",
		"/a]",
		"/unknown::a",
		"/a[not b]",
		"/a[lab() b]",
		"/a[lab() = ]",
		"a/",
		"|//a",
		"/a[()]",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// TestParseNestingLimit: qualifiers, not(...) and parentheses nested exactly
// maxNesting deep parse; one level deeper is a parse error rather than
// unbounded recursion.
func TestParseNestingLimit(t *testing.T) {
	forms := map[string]func(depth int) string{
		"qualifiers": func(depth int) string {
			return "/a" + strings.Repeat("[a", depth) + strings.Repeat("]", depth)
		},
		"not": func(depth int) string {
			return "//a[" + strings.Repeat("not(", depth-1) + "b" + strings.Repeat(")", depth-1) + "]"
		},
		"parens": func(depth int) string {
			return "//a[" + strings.Repeat("(", depth-1) + "b" + strings.Repeat(")", depth-1) + "]"
		},
	}
	for name, nest := range forms {
		if _, err := Parse(nest(maxNesting)); err != nil {
			t.Errorf("%s at depth %d: %v", name, maxNesting, err)
		}
		for _, depth := range []int{maxNesting + 1, 1 << 20} {
			if _, err := Parse(nest(depth)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
				t.Errorf("%s at depth %d: err = %v, want a nesting error", name, depth, err)
			}
		}
	}
}

func TestQueryOnPaperTree(t *testing.T) {
	tr := paperTree()
	cases := []struct {
		query string
		pres  []int
	}{
		{"/a", []int{1}},
		{"/a/b", []int{2}},
		{"//b", []int{2, 6}},
		{"//a//b", []int{2, 6}},
		{"//b/a", []int{3}},
		{"//b[c]", []int{2}},
		{"//b[not(c)]", []int{6}},
		{"//a[b and not(c)]", []int{1, 5}},
		{"//a[b and not(descendant::d)]", nil},
		{"//*[following-sibling::d]", []int{6}},
		{"//c/following::*", []int{5, 6, 7}},
		{"//d/ancestor::*", []int{1, 5}},
		{"//a | //d", []int{1, 3, 5, 7}},
		{"//b/..", []int{1, 5}},
		{"//a[.//d]", []int{1, 5}},
		{"/a/child::*[lab() = b or lab() = c]", []int{2}},
		{"//self::c", []int{4}},
	}
	for _, c := range cases {
		e, err := Parse(c.query)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.query, err)
			continue
		}
		for name, result := range map[string]NodeSet{
			"naive": QueryNaive(e, tr),
			"set":   Query(e, tr),
		} {
			got := preSet(tr, result)
			if len(got) != len(c.pres) {
				t.Errorf("%s %q: got preorders %v, want %v", name, c.query, got, c.pres)
				continue
			}
			for _, p := range c.pres {
				if !got[p] {
					t.Errorf("%s %q: missing preorder %d (got %v)", name, c.query, p, got)
				}
			}
		}
	}
}

func TestWildcardAbsoluteRoot(t *testing.T) {
	tr := paperTree()
	// "/" alone: the root.
	e := MustParse("/descendant-or-self::*")
	if got := Query(e, tr); len(got) != tr.Len() {
		t.Errorf("//* should select every node, got %d", len(got))
	}
	if got := Query(MustParse("/*"), tr); len(got) != 1 {
		t.Errorf("/* selects the root's children... of the document: got %d, want 1 (the root element has no parent element)", len(got))
	}
}

// TestSetMatchesNaiveRandom is the central cross-check of the two
// evaluators over random documents and generated query shapes.
func TestSetMatchesNaiveRandom(t *testing.T) {
	queries := []string{
		"//a",
		"//a/b",
		"//a//b[c]",
		"//a[not(b)]/c",
		"//b/following-sibling::a",
		"//c/preceding-sibling::*",
		"//a/parent::b",
		"//a/ancestor-or-self::a",
		"//b[following::c]",
		"//a[b or c]/descendant::d | //c",
		"//a[not(b) and not(c)]",
		"//*[preceding::a and not(following::b)]",
		"//a/following::b/ancestor::c",
	}
	for seed := int64(0); seed < 8; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 60, Seed: seed, Alphabet: []string{"a", "b", "c", "d"}})
		for _, qs := range queries {
			e := MustParse(qs)
			want := QueryNaive(e, tr)
			got := Query(e, tr)
			if len(want) != len(got) {
				t.Errorf("seed %d, %q: set %d nodes, naive %d", seed, qs, len(got), len(want))
				continue
			}
			for i := range want {
				if want[i] != got[i] {
					t.Errorf("seed %d, %q: results differ", seed, qs)
					break
				}
			}
		}
	}
}

func TestEvaluateFromArbitraryContext(t *testing.T) {
	tr := paperTree()
	e := MustParse("following-sibling::*[lab() = a]")
	b := tree.NodeID(1) // the first b node, pre 2
	naive := EvaluateNaive(e, tr, b)
	set := Evaluate(e, tr, NodeSet{b})
	if len(naive) != 1 || len(set) != 1 || naive[0] != set[0] || tr.Pre(naive[0]) != 5 {
		t.Errorf("relative evaluation wrong: naive %v set %v", naive, set)
	}
}

func TestNodeSetHelpers(t *testing.T) {
	s := NodeSet{1, 3, 5}
	if !s.Contains(3) || s.Contains(2) {
		t.Errorf("Contains wrong")
	}
	if len(s.ToSet()) != 3 {
		t.Errorf("ToSet wrong")
	}
}

func TestClassifiers(t *testing.T) {
	cases := []struct {
		q                              string
		forward, positive, conjunctive bool
	}{
		{"//a/b", true, true, true},
		{"//a[b and c]", true, true, true},
		{"//a[b or c]", true, true, false},
		{"//a[not(b)]", true, false, false},
		{"//a/parent::b", false, true, true},
		{"//a | //b", true, true, false},
		{"//a[ancestor::b]", false, true, true},
	}
	for _, c := range cases {
		e := MustParse(c.q)
		if IsForward(e) != c.forward {
			t.Errorf("IsForward(%q) = %v", c.q, IsForward(e))
		}
		if IsPositive(e) != c.positive {
			t.Errorf("IsPositive(%q) = %v", c.q, IsPositive(e))
		}
		if IsConjunctive(e) != c.conjunctive {
			t.Errorf("IsConjunctive(%q) = %v", c.q, IsConjunctive(e))
		}
		if Size(e) <= 0 {
			t.Errorf("Size(%q) = %d", c.q, Size(e))
		}
	}
}

func TestSiteDocumentQueries(t *testing.T) {
	doc := siteDoc()
	items := Query(MustParse("//item"), doc)
	if len(items) != 20 {
		t.Errorf("//item: %d nodes, want 20", len(items))
	}
	kw := Query(MustParse("//item/description//keyword"), doc)
	if len(kw) != 40 {
		t.Errorf("//item/description//keyword: %d nodes, want 40", len(kw))
	}
	withMailbox := Query(MustParse("//item[mailbox]/name"), doc)
	withoutMailbox := Query(MustParse("//item[not(mailbox)]/name"), doc)
	if len(withMailbox)+len(withoutMailbox) != 20 {
		t.Errorf("mailbox partition broken: %d + %d", len(withMailbox), len(withoutMailbox))
	}
}

func TestXMLIntegration(t *testing.T) {
	doc := xmldoc.MustParse(`<library><shelf><book year="2001"><title/></book><book><title/><review/></book></shelf></library>`)
	books := Query(MustParse("//book[review]"), doc)
	if len(books) != 1 {
		t.Errorf("//book[review]: %d, want 1", len(books))
	}
	titled := Query(MustParse("//book/title"), doc)
	if len(titled) != 2 {
		t.Errorf("//book/title: %d, want 2", len(titled))
	}
}

func TestToCQ(t *testing.T) {
	tr := siteDoc()
	cases := []string{
		"//item",
		"//item[name]/description//keyword",
		"//region//item[quantity and description]",
		"//item/child::*",
	}
	for _, qs := range cases {
		e := MustParse(qs)
		q, err := ToCQ(e)
		if err != nil {
			t.Errorf("ToCQ(%q): %v", qs, err)
			continue
		}
		if !q.IsAcyclic() {
			t.Errorf("ToCQ(%q) produced a cyclic query %v", qs, q)
		}
		// The CQ evaluated with Yannakakis and with the arc-consistency
		// enumerator must both match the native XPath evaluation.
		want := Query(e, tr)
		yAns, err := yannakakis.Evaluate(q, tr)
		if err != nil {
			t.Fatalf("yannakakis on ToCQ(%q): %v", qs, err)
		}
		aAns, err := arccons.EnumerateAcyclic(q, tr)
		if err != nil {
			t.Fatalf("arccons on ToCQ(%q): %v", qs, err)
		}
		for name, ans := range map[string][]cq.Answer{"yannakakis": yAns, "arccons": aAns} {
			if len(ans) != len(want) {
				t.Errorf("%s(%q): %d answers, want %d", name, qs, len(ans), len(want))
				continue
			}
			for i := range ans {
				if ans[i][0] != want[i] {
					t.Errorf("%s(%q): answers differ from XPath evaluation", name, qs)
					break
				}
			}
		}
	}
	// Rejections.
	if _, err := ToCQ(MustParse("//a | //b")); err != ErrNotConjunctive {
		t.Errorf("union should be rejected, got %v", err)
	}
	if _, err := ToCQ(MustParse("//a[not(b)]")); err != ErrNotConjunctive {
		t.Errorf("negation should be rejected, got %v", err)
	}
	if _, err := ToCQ(MustParse("/a/b")); err != ErrNotTwigShaped {
		t.Errorf("child-rooted path should be rejected, got %v", err)
	}
}
