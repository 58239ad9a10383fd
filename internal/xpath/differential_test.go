package xpath_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/index"
	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xpath"
)

var genAxes = []string{
	"self", "child", "descendant", "descendant-or-self", "parent", "ancestor",
	"ancestor-or-self", "following-sibling", "preceding-sibling", "following",
	"preceding", "next-sibling", "previous-sibling",
	"following-sibling-or-self", "preceding-sibling-or-self",
}

// genXPath writes random Core XPath text over the labels a, b, c: every axis,
// the abbreviations . and .., "//" in leading, inner and qualifier position,
// unions, and qualifiers with and/or/not(), lab() tests and relative or
// absolute paths, nested up to depth.
type genXPath struct{ rng *rand.Rand }

func (g genXPath) test() string { return []string{"a", "b", "c", "*"}[g.rng.Intn(4)] }

func (g genXPath) expr(depth int) string {
	if g.rng.Intn(4) == 0 {
		return g.path(depth) + " | " + g.path(depth)
	}
	return g.path(depth)
}

func (g genXPath) path(depth int) string {
	var sb strings.Builder
	sb.WriteString([]string{"", "", "/", "//", "//"}[g.rng.Intn(5)])
	for i, n := 0, 1+g.rng.Intn(3); i < n; i++ {
		if i > 0 {
			sb.WriteString([]string{"/", "//"}[g.rng.Intn(2)])
		}
		switch g.rng.Intn(8) {
		case 0:
			sb.WriteString(".")
			continue
		case 1:
			sb.WriteString("..")
			continue
		case 2, 3:
			sb.WriteString(g.test())
		default:
			sb.WriteString(genAxes[g.rng.Intn(len(genAxes))] + "::" + g.test())
		}
		for depth > 0 && g.rng.Intn(3) == 0 {
			sb.WriteString("[" + g.qual(depth-1) + "]")
		}
	}
	return sb.String()
}

func (g genXPath) qual(depth int) string {
	switch g.rng.Intn(7) {
	case 0:
		return "not(" + g.qual(depth) + ")"
	case 1:
		return "(" + g.qual(depth) + " and " + g.qual(depth) + ")"
	case 2:
		return "(" + g.qual(depth) + " or " + g.qual(depth) + ")"
	case 3:
		return "lab() = " + []string{"a", "b", "c"}[g.rng.Intn(3)]
	}
	return g.expr(depth)
}

// qualDepth is the deepest nesting of path qualifiers: the exponent of the
// naive evaluator's cost, which re-evaluates a qualifier at every node its
// step reaches.
func qualDepth(e xpath.Expr) int {
	var ofQual func(q xpath.Qual) int
	ofQual = func(q xpath.Qual) int {
		switch q := q.(type) {
		case *xpath.QualPath:
			return 1 + qualDepth(q.Path)
		case *xpath.QualAnd:
			return max(ofQual(q.Left), ofQual(q.Right))
		case *xpath.QualOr:
			return max(ofQual(q.Left), ofQual(q.Right))
		case *xpath.QualNot:
			return ofQual(q.Inner)
		}
		return 0
	}
	d := 0
	switch e := e.(type) {
	case *xpath.Union:
		d = max(qualDepth(e.Left), qualDepth(e.Right))
	case *xpath.Path:
		for _, s := range e.Steps {
			for _, q := range s.Quals {
				d = max(d, ofQual(q))
			}
		}
	}
	return d
}

// checkAgainstNaive asserts set-at-a-time = naive on (e, tr), through a
// shared index — twice, so a shared mask the first run corrupted would show —
// and through none, and that the runs released all they took from the
// bitset pool.
func checkAgainstNaive(t *testing.T, text string, e xpath.Expr, tr *tree.Tree) {
	t.Helper()
	want := xpath.QueryNaive(e, tr)
	ix := index.New(tr)
	for _, run := range []struct {
		name string
		ix   *index.Index
	}{{"indexed", ix}, {"indexed again", ix}, {"nil index", nil}} {
		if got := xpath.QueryIndexed(e, tr, run.ix); !slices.Equal(got, want) {
			t.Fatalf("%q on %s (%s)\nset-at-a-time %v\nnaive         %v",
				text, tr, run.name, got, want)
		}
	}
	poolcheck.Check(t, bitset.Outstanding)
}

// TestImageEvaluatorMatchesNaiveRandom is the XPath slice of the
// cross-technique oracle: random Core XPath — not(), unions, absolute
// qualifier paths, "//" in every position — on random multi-labeled trees
// built out of document order.
func TestImageEvaluatorMatchesNaiveRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scrambled := workload.ScrambledTree(2+int(seed%17), seed)
		text := genXPath{rng}.expr(2)
		e, err := xpath.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated %q does not parse: %v", seed, text, err)
		}
		checkAgainstNaive(t, fmt.Sprintf("seed %d: %s", seed, text), e, scrambled)
	}
}

// xpathHandCases are the shapes the document-node bookkeeping and the "//"
// fusion can get wrong; they also seed the fuzzer.
var xpathHandCases = []string{
	"/", "/*", "/a", "//a", "//*", "/.", "/..", "//.", "//..", "/./a", "//./a",
	"/descendant-or-self::*", "/descendant::a", "/descendant-or-self::*/child::*",
	"/descendant-or-self::*/descendant-or-self::*/child::a",
	"/descendant-or-self::*[a]/child::b", "/descendant-or-self::a/child::b",
	"//a//b", "a//b", ".//b", "//a/..//b", "//a//*//b", "//a[.//b]", "//a[//b]", "//a[not(//nope)]",
	"//a[/a/b]", "//a[/]", "//a[b//c]//b[not(.//a)]", "//*[not(*)]", "//a[.//b | c]",
	"//a | //b | /c", "//a[b and not(c) or lab() = a]",
	"//b/preceding::a", "//b/following::*[not(following::*)]", "//a/ancestor-or-self::*//c",
	"//a/following-sibling-or-self::b/previous-sibling::*", "//c/next-sibling::*",
}

const xpathHandTree = "a+c(b(a c) _ a(b+a d) c(c(c)))"

func TestImageEvaluatorHandCases(t *testing.T) {
	scrambled := workload.ScrambledTree(14, 3)
	for _, text := range xpathHandCases {
		e := xpath.MustParse(text)
		for _, tr := range []*tree.Tree{tree.MustParseSexpr(xpathHandTree), tree.MustParseSexpr("a"), scrambled} {
			checkAgainstNaive(t, text, e, tr)
		}
	}
}

// FuzzXPathVsNaive fuzzes the XPath parser with the evaluator's differential
// oracle behind it: Parse must neither panic nor hang on any query text, and
// whenever the text parses, the image-based evaluator — with an index and
// without — must return exactly what the naive semantics returns on a small
// tree given in canonical s-expression form.
func FuzzXPathVsNaive(f *testing.F) {
	for _, text := range xpathHandCases {
		f.Add(text, xpathHandTree)
	}
	f.Add("//a[not(b[c])]/following::*[lab() = @id=i0]", "a(b+@id=i0(c) a)")
	f.Fuzz(func(t *testing.T, text, doc string) {
		if len(text) > 1<<9 || len(doc) > 1<<8 {
			t.Skip("oversized input")
		}
		e, err := xpath.Parse(text)
		if err != nil {
			return // rejecting a malformed query is fine; crashing is not
		}
		tr, err := tree.ParseSexpr(doc)
		if err != nil {
			tr = tree.MustParseSexpr(xpathHandTree)
		}
		// The oracle is exponential in the qualifier nesting; keep it bounded.
		if math.Pow(float64(tr.Len()), float64(qualDepth(e)+1))*float64(xpath.Size(e)) > 1<<22 {
			t.Skip("too costly for the naive semantics")
		}
		checkAgainstNaive(t, text, e, tr)
	})
}
