package tree

import (
	"slices"
	"testing"
)

// TestDictLineage pins the dictionary rules a PUT relies on: a builder that
// inherits a dictionary shares it while every label is known, copies it at
// the first new name — leaving the inherited one untouched and extended by
// the copy, every old name on its old code — and NextDict starts afresh once
// the dictionary holds more than twice the labels the tree carries.
func TestDictLineage(t *testing.T) {
	t1 := MustParseSexpr("a(b c)")
	d1 := t1.Dict()

	b := NewBuilderDict(d1)
	b.AddChild(b.AddRoot("a"), "c")
	same := b.MustBuild()
	if same.Dict() != d1 {
		t.Fatal("a tree of known labels copied the inherited dictionary")
	}

	b = NewBuilderDict(d1)
	b.AddChild(b.AddRoot("a"), "x")
	grown := b.MustBuild()
	d2 := grown.Dict()
	if d2 == d1 || d1.Len() != 3 || d1.Code("x") != NoCode {
		t.Fatalf("a new label wrote the inherited dictionary: %d names, x = %d", d1.Len(), d1.Code("x"))
	}
	if !d2.Extends(d1) || d1.Extends(d2) || Translate(d1, d2) != nil {
		t.Fatal("the copy does not extend the dictionary it was made from")
	}
	if got := d2.Code("x"); got != 3 || grown.LabelCodes(1)[0] != got || grown.Label(1) != "x" {
		t.Fatalf("new label x coded %d, node 1 carries %v", got, grown.LabelCodes(1))
	}
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}

	// A dictionary of its own numbers the same names differently: codes
	// translate by name, and a name the target lacks has none.
	other := MustParseSexpr("c(a)").Dict()
	if got := Translate(d1, other); !slices.Equal(got, []Code{1, NoCode, 0}) {
		t.Fatalf("Translate(a b c -> c a) = %v", got)
	}

	// grown carries a and x of four names: 4 <= 2*2 keeps the dictionary;
	// a tree carrying one of them does not.
	if grown.NextDict() != d2 {
		t.Fatal("NextDict reset a dictionary within twice the labels in use")
	}
	b = NewBuilderDict(d2)
	b.AddRoot("a")
	if b.MustBuild().NextDict() != nil {
		t.Fatal("NextDict kept a dictionary of four names for a tree carrying one")
	}
}

// TestBuilderTextRuns: text appended to a node after another node's text
// moves the node's run to the end of the buffer, SetText replaces it, and
// Build lays the runs out in preorder whatever order they arrived in — with
// the nodes renumbered too.
func TestBuilderTextRuns(t *testing.T) {
	b := NewBuilder()
	r := b.AddRoot("r")
	y := b.AddChild(r, "y")
	x := b.AddChild(r, "x")
	z := b.AddChild(y, "z") // out of document order: z sits inside y
	b.AppendText(r, "r1")
	b.AppendText(x, "x")
	b.AppendText(r, "r2")
	b.AppendText(z, "z1")
	b.SetText(y, "gone")
	b.AppendText(z, "z2")
	b.SetText(y, "y")
	b.AddLabel(y, "w") // y's labels move past x's and z's
	tr := b.MustBuild()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "r(y+w(z) x)" {
		t.Fatalf("tree %s, want r(y+w(z) x)", got)
	}
	if b.Final(z) != 2 || b.Final(x) != 3 {
		t.Fatalf("z and x went to %d and %d, want 2 and 3", b.Final(z), b.Final(x))
	}
	for v, want := range []string{"r1r2", "y", "z1z2", "x"} {
		if got := tr.Text(NodeID(v)); got != want {
			t.Errorf("node %d: text %q, want %q", v, got, want)
		}
	}
	texts := 0
	for v := range NodeID(tr.Len()) {
		if tr.Text(v) != "" {
			texts++
		}
	}
	if texts != 4 {
		t.Errorf("%d text nodes, want 4", texts)
	}
}
