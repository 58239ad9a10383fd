package cq

import (
	"reflect"
	"testing"
)

// FuzzCQParse: CQ text arrives in request bodies, so Parse must return for any
// input — a query or an error, never a panic — and a query it accepts must
// print (String) into text that parses back to the same query and prints the
// same again.  The checked-in seed unbalanced-label is a body whose brackets
// close before they open, which Parse once took for the label "),".
func FuzzCQParse(f *testing.F) {
	f.Add("Q(x, y) :- Child(x, y), Lab[a](x), Child+(y, z), x <pre z.")
	f.Add("Q(k) :- Lab[item](x), Child+(x, k), Lab[keyword](k).")
	f.Add("Q :- Lab[@name=africa](r), NextSibling+^-1(r, s), b(s).")
	f.Add("Q(x) :- Lab[a,b](x), Lab[][](x), Following(x, _y1).")
	f.Add("Q :- true.")
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted a query that prints as %q, which does not parse: %v", in, text, err)
		}
		if !reflect.DeepEqual(back, q) || back.String() != text {
			t.Fatalf("Parse(%q) = %#v prints as %q, which parses to %#v", in, q, text, back)
		}
	})
}
