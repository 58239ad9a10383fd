package tree

import (
	"hash/maphash"
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

// dictRef is the reference a flat Dict is checked against: a map from name
// to code and the names by code.
type dictRef struct {
	codes map[string]Code
	names []string
}

func (r *dictRef) code(name string) Code {
	if c, ok := r.codes[name]; ok {
		return c
	}
	return NoCode
}

// check compares d with the reference: the same names on the same codes,
// found by string and by bytes, and NoCode for a name d lacks.
func (r *dictRef) check(t *testing.T, d *Dict, absent string) {
	t.Helper()
	if d.Len() != len(r.names) {
		t.Fatalf("dictionary of %d names, reference has %d", d.Len(), len(r.names))
	}
	for c, name := range r.names {
		if got := d.Name(Code(c)); got != name {
			t.Fatalf("Name(%d) = %q, want %q", c, got, name)
		}
		if got := d.Code(name); got != Code(c) {
			t.Fatalf("Code(%q) = %d, want %d", name, got, c)
		}
		if got := lookup(d, maphash.Bytes(seed, []byte(name)), []byte(name)); got != Code(c) {
			t.Fatalf("lookup of %q by bytes = %d, want %d", name, got, c)
		}
	}
	if got := d.Code(absent); got != r.code(absent) {
		t.Fatalf("Code(%q) = %d, want %d", absent, got, r.code(absent))
	}
}

// FuzzDict drives random sequences of builds through two dictionary
// lineages and compares each flat Dict with a map-backed reference.  A build
// codes a run of names, by string or by bytes from a buffer it then
// overwrites; the first new name must copy the inherited dictionary and
// leave it as it was, and a build of known names must share it.  Between
// builds, Extends and Translate relate the two lineages, and NextDict resets
// a lineage whose dictionary outgrew twice the labels its last tree carries.
func FuzzDict(f *testing.F) {
	// Each step is a lineage byte and an operation byte; a build is a count
	// and, per name, a name byte (a pool index below 0x80, else a length of
	// input bytes) and a mode byte (Code or CodeBytes), then one more name
	// that is looked up only.
	f.Add([]byte{})
	// The empty name, by string and by bytes, twice.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 2})
	// Names that differ in one byte, in both lineages, then related.
	f.Add([]byte{0, 0, 4, 5, 0, 6, 1, 8, 0, 10, 1, 1, 1, 0, 2, 6, 0, 5, 1, 0, 0, 3, 0, 0, 3, 1})
	// A name that is a prefix of another, a reset, and names from input bytes.
	f.Add([]byte{0, 0, 3, 1, 0, 3, 1, 5, 0, 4, 1, 0, 2, 9, 1, 8, 0, 3, 0, 3, 0, 1, 3, 1, 0, 2,
		0, 1, 2, 0x83, 'a', 'b', 'c', 1, 0x82, 'a', 'b', 0, 0x81, 'x'})
	pool := []string{"", "a", "b", "ab", "ba", "abc", "abd", "a\x00", "@id=item1", "@id=item10", "@id=item2"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			x := data[0]
			data = data[1:]
			return x
		}
		// name takes a pool name, or a short name spelled by the input.
		name := func() string {
			x := next()
			if x < 0x80 {
				return pool[int(x)%len(pool)]
			}
			n := min(int(x&7), len(data))
			s := string(data[:n])
			data = data[n:]
			return s
		}
		type lineage struct {
			d    *Dict
			ref  dictRef
			tree *Tree
		}
		fresh := func() dictRef { return dictRef{codes: map[string]Code{}} }
		ls := [2]lineage{{ref: fresh()}, {ref: fresh()}}
		var buf []byte
		for len(data) > 0 {
			l := &ls[next()&1]
			switch next() % 4 {
			case 0, 1: // a build
				old, oldLen := l.d, len(l.ref.names)
				b := NewBuilderDict(old)
				root := b.AddCoded(InvalidNode)
				carried := map[string]bool{}
				for range int(next() % 8) {
					s := name()
					want := l.ref.code(s)
					if want == NoCode {
						want = Code(len(l.ref.names))
						l.ref.codes[s] = want
						l.ref.names = append(l.ref.names, s)
					}
					var c Code
					if next()&1 == 0 {
						c = b.Code(s)
					} else {
						buf = append(buf[:0], s...)
						c = b.CodeBytes(buf)
						for i := range buf {
							buf[i] ^= 0xff // the dictionary kept a copy
						}
					}
					if c != want {
						t.Fatalf("coding %q gave %d, want %d", s, c, want)
					}
					if got := b.t.dict.Name(c); got != s {
						t.Fatalf("open builder: Name(%d) = %q, want %q", c, got, s)
					}
					b.AddCode(root, c)
					carried[s] = true
				}
				tr := b.MustBuild()
				d := tr.Dict()
				if old != nil {
					if grew := len(l.ref.names) > oldLen; grew == (d == old) {
						t.Fatalf("%d new names: the build shared the inherited dictionary = %v", len(l.ref.names)-oldLen, d == old)
					}
					prefix := dictRef{codes: map[string]Code{}, names: l.ref.names[:oldLen]}
					for c, s := range prefix.names {
						prefix.codes[s] = Code(c)
					}
					prefix.check(t, old, "")
					if !d.Extends(old) || (d != old && old.Extends(d)) {
						t.Fatalf("the copy of %d names and its origin of %d: Extends both ways %v, %v", d.Len(), old.Len(), d.Extends(old), old.Extends(d))
					}
				}
				l.ref.check(t, d, name())
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				if tr.alphabet != len(carried) {
					t.Fatalf("tree carries %d labels, counted %d", len(carried), tr.alphabet)
				}
				l.d, l.tree = d, tr
			case 2: // a reset
				if l.tree == nil {
					continue
				}
				nd := l.tree.NextDict()
				if reset := l.d.Len() > 2*l.tree.alphabet; reset != (nd == nil) || (!reset && nd != l.d) {
					t.Fatalf("NextDict of %d names for %d labels carried = %p, dictionary %p", l.d.Len(), l.tree.alphabet, nd, l.d)
				}
				if nd == nil {
					l.d, l.ref, l.tree = nil, fresh(), nil
				}
			case 3: // the two lineages
				from, to := &ls[0], &ls[1]
				if next()&1 == 1 {
					from, to = to, from
				}
				if from.d == nil || to.d == nil {
					continue
				}
				extends := len(to.ref.names) >= len(from.ref.names) &&
					slices.Equal(to.ref.names[:len(from.ref.names)], from.ref.names)
				if to.d.Extends(from.d) != extends {
					t.Fatalf("Extends(%q -> %q) = %v, want %v", from.ref.names, to.ref.names, !extends, extends)
				}
				got := Translate(from.d, to.d)
				if (got == nil) != extends {
					t.Fatalf("Translate(%q -> %q) = %v", from.ref.names, to.ref.names, got)
				}
				for c, s := range from.ref.names {
					if got != nil && got[c] != to.ref.code(s) {
						t.Fatalf("Translate(%q -> %q)[%d] = %d, want %d", from.ref.names, to.ref.names, c, got[c], to.ref.code(s))
					}
				}
			}
		}
	})
}
