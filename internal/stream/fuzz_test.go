package stream

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// fuzzPath renders one downward path step per byte: the low two bits pick
// the separator ("/", the fusible "//", or an explicit descendant or
// descendant-or-self axis), the next two the test (a, b, c or "*").
func fuzzPath(code []byte) string {
	var sb strings.Builder
	for _, c := range code {
		sb.WriteString([]string{"/", "//", "/descendant::", "/descendant-or-self::"}[c&3])
		sb.WriteString([]string{"a", "b", "c", "*"}[c>>2&3])
	}
	return sb.String()
}

// FuzzStreamVsXPath checks Run over the events of a bounded s-expression
// tree on a downward path: when no node carries a query label beyond its
// first (its element name), it selects what xpath.Query selects, and it
// reports the Stats of the one-state-at-a-time reference run.
func FuzzStreamVsXPath(f *testing.F) {
	f.Add("a(b+c)", []byte{1<<2 | 2 /* //c */})
	f.Add("a(x(x(b(c))) b(x) x(a(x(b))))", []byte{0 << 2, 1<<2 | 1, 2<<2 | 0})
	f.Add("a(b(c a(b)) c+a(b c))", []byte{1, 3<<2 | 0, 2<<2 | 3})
	f.Add("_(a b+_ c(_(a)))", []byte{3<<2 | 1, 3<<2 | 1, 0<<2 | 3})
	f.Fuzz(func(t *testing.T, sexpr string, code []byte) {
		if len(sexpr) > 1000 || len(code) == 0 || len(code) > 12 {
			return
		}
		doc, err := tree.ParseSexpr(sexpr)
		if err != nil || doc.Len() > 300 {
			return
		}
		q := fuzzPath(code)
		e := xpath.MustParse(q)
		m := MustCompile(e)
		for v := range tree.NodeID(doc.Len()) {
			if ls := doc.Labels(v); len(ls) > 1 && slices.ContainsFunc(ls[1:], func(l string) bool { return slices.Contains(m.tests, l) }) {
				return
			}
		}
		events := xmldoc.Events(doc)
		got, stats, err := runNodes(m, events)
		if err != nil {
			t.Fatal(err)
		}
		if want := xpath.Query(e, doc); !slices.Equal(got, want) {
			t.Fatalf("%s on %s: stream %v, xpath %v", q, doc, got, want)
		}
		if refNodes, refStats := reference(m, events); stats != refStats || !slices.Equal(got, refNodes) {
			t.Fatalf("%s on %s: Run %v %+v, reference %v %+v", q, doc, got, stats, refNodes, refStats)
		}
	})
}
