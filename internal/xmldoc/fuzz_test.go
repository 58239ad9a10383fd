package xmldoc

import (
	"testing"

	"repro/internal/tree"
	"repro/internal/treediff"
)

// FuzzParse: Parse is the first thing that touches the body of a PUT, so for
// ANY input it must return — a tree or a *SyntaxError, never a panic — and a
// tree it accepts must equal what tree.Builder builds from a replay of
// Tokenize's events, and survive Serialize and a second Parse node for node,
// label for label, text for text.
//
// A PUT parses against the dictionary of the version it replaces, so the
// second input is parsed again with the dictionary of the first: it must
// succeed or fail as a fresh Parse does, build a tree treediff.Equal to the
// fresh one, and leave every code of the first input's dictionary naming
// what it named, in the inherited dictionary and in the new one.
func FuzzParse(f *testing.F) {
	f.Add(`<a>x<b/>z</a>`, `<a><b/><c/></a>`)                    // mixed content: text around a child
	f.Add(`<a>x &amp; y<b>q</b>z<c/>w</a>`, `<c><a x="1"/></c>`) // ... with an entity and two children
	f.Add(`<?xml version="1.0"?><!DOCTYPE r><r a="1" b='&lt;"'><!-- c --><s/><![CDATA[ x ]]></r>`, `<r b='&lt;"'/>`)
	f.Add(`<r path="c:\dir" v="a&#10;b&#9;c"><s><![CDATA[ ]]></s>&#65;&#x42;</r>`, `<s v="a&#10;b&#9;c"/>`)
	f.Add(`<a><b></a></b>`, `<b/>`)
	f.Add(`<a id="3></a>`, `<a id="3"></a>`)
	// Numeric character references are digits only, naming an XML Char.
	f.Add(`<a>&#65abc;</a>`, `<a>&#65;</a>`)
	f.Add(`<a>&# 65;</a>`, `<a>&#+66;</a>`)
	f.Add(`<a>&#x41zz;</a>`, `<a>&#-5;</a>`)
	f.Add(`<a>&#x110000;</a>`, `<a>&#xD800;</a>`)
	f.Add(`<a>&#0;</a>`, `<a b="&#0;"/>`)
	f.Fuzz(func(t *testing.T, src, src2 string) {
		if len(src) > 1<<16 || len(src2) > 1<<16 {
			t.Skip("oversized input")
		}
		tr, err := Parse(src)
		if err != nil {
			return
		}
		inheritsDict(t, tr, src2)
		if err := tr.Validate(); err != nil {
			t.Fatalf("Parse(%q) built an invalid tree: %v", src, err)
		}
		evs, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded but Tokenize failed: %v", src, err)
		}
		ref, err := replay(evs)
		if err != nil || !treediff.Equal(tr, ref) || tr.Height() != ref.Height() {
			t.Fatalf("Parse(%q) and tree.Builder's replay of its events disagree (%v):\n%s\n%s",
				src, err, treediff.Canonical(tr), treediff.Canonical(ref))
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

// inheritsDict checks the parse of src2 against the dictionary of prev.
func inheritsDict(t *testing.T, prev *tree.Tree, src2 string) {
	d := prev.Dict()
	names := make([]string, d.Len())
	for c := range names {
		names[c] = d.Name(tree.Code(c))
	}
	heir, err := ParseDict(src2, d)
	fresh, freshErr := Parse(src2)
	if (err == nil) != (freshErr == nil) {
		t.Fatalf("Parse(%q) = %v, but against the dictionary of a predecessor %v", src2, freshErr, err)
	}
	for c, name := range names {
		if d.Name(tree.Code(c)) != name {
			t.Fatalf("parsing %q against it renamed code %d of the inherited dictionary from %q to %q", src2, c, name, d.Name(tree.Code(c)))
		}
		if heir != nil && heir.Dict().Name(tree.Code(c)) != name {
			t.Fatalf("parsing %q against a dictionary gave code %d the name %q, not %q", src2, c, heir.Dict().Name(tree.Code(c)), name)
		}
	}
	if err != nil {
		return
	}
	if err := heir.Validate(); err != nil {
		t.Fatalf("ParseDict(%q) built an invalid tree: %v", src2, err)
	}
	if !treediff.Equal(heir, fresh) {
		t.Fatalf("ParseDict(%q) differs from a fresh Parse:\n%s\n%s", src2, treediff.Canonical(heir), treediff.Canonical(fresh))
	}
}
