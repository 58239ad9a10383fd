package xmldoc

import (
	"testing"

	"repro/internal/treediff"
)

// FuzzParse: Parse is the first thing that touches the body of a PUT, so for
// ANY input it must return — a tree or a *SyntaxError, never a panic — and a
// tree it accepts must survive Serialize and a second Parse node for node,
// label for label, text for text.
func FuzzParse(f *testing.F) {
	f.Add(`<a>x<b/>z</a>`)                  // mixed content: text around a child
	f.Add(`<a>x &amp; y<b>q</b>z<c/>w</a>`) // ... with an entity and two children
	f.Add(`<?xml version="1.0"?><!DOCTYPE r><r a="1" b='&lt;"'><!-- c --><s/><![CDATA[ x ]]></r>`)
	f.Add(`<r path="c:\dir" v="a&#10;b&#9;c"><s><![CDATA[ ]]></s>&#65;&#x42;</r>`)
	f.Add(`<a><b></a></b>`)
	f.Add(`<a id="3></a>`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		tr, err := Parse(src)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Parse(%q) built an invalid tree: %v", src, err)
		}
		out := Serialize(tr, false)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded but its serialization %q does not parse: %v", src, out, err)
		}
		if !treediff.Equal(tr, back) {
			t.Fatalf("round trip of %q through %q changed the tree:\n%s\n%s",
				src, out, treediff.Canonical(tr), treediff.Canonical(back))
		}
	})
}
