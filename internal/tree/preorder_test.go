package tree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// TestPreorderMatchesBuilder: a Preorder fed a document-order walk builds the
// tree a Builder builds from the same walk — shape, labels, text (mixed
// content included), height and alphabet — whether its reservation fits,
// falls short (the columns regrow) or overshoots (Build trims it), and
// against a fresh or an inherited dictionary.
func TestPreorderMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inherited := tree.MustParseSexpr("r(a b c)").Dict()
	for trial := range 300 {
		nodes := 1 + rng.Intn(60)
		var dict *tree.Dict
		if trial%2 == 1 {
			dict = inherited
		}
		room := []int{1, nodes, 4 * nodes}[trial%3]
		var p tree.Preorder
		p.Init(dict, room, room, room)
		b := tree.NewBuilderDict(dict)
		var open []tree.NodeID // Builder IDs of the open nodes
		started := 0
		for started < nodes || len(open) > 0 {
			switch r := rng.Intn(6); {
			case started == 0 || started < nodes && r < 2:
				name := string(rune('a' + rng.Intn(5)))
				parent := tree.InvalidNode
				if len(open) > 0 {
					parent = open[len(open)-1]
				}
				id := b.AddCoded(parent, b.Code(name))
				p.Start(p.Code(name))
				if rng.Intn(4) == 0 {
					attr := fmt.Sprintf("@id=%d", rng.Intn(8))
					b.AddCode(id, b.Code(attr))
					p.AddCode(p.CodeBytes([]byte(attr)))
				}
				open = append(open, id)
				started++
			case r < 4:
				text := fmt.Sprintf("t%d.", rng.Intn(100))
				b.AppendText(open[len(open)-1], text)
				if rng.Intn(2) == 0 {
					p.AppendText(text)
				} else {
					p.AppendTextBytes([]byte(text))
				}
			case len(open) > 1 || started == nodes:
				open = open[:len(open)-1]
				p.End()
			}
		}
		want := b.MustBuild()
		got, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !tree.Equal(got, want) || got.Height() != want.Height() || fmt.Sprint(got.LabelAlphabet()) != fmt.Sprint(want.LabelAlphabet()) {
			t.Fatalf("trial %d: Preorder built %s (height %d), Builder %s (height %d)", trial, got, got.Height(), want, want.Height())
		}
		for v := range tree.NodeID(got.Len()) {
			if got.Text(v) != want.Text(v) || got.PrevSibling(v) != want.PrevSibling(v) {
				t.Fatalf("trial %d, node %d: text %q, left sibling %d; Builder %q, %d", trial, v, got.Text(v), got.PrevSibling(v), want.Text(v), want.PrevSibling(v))
			}
		}
		if dict != nil && got.Dict().Len() == dict.Len() && got.Dict() != dict {
			t.Fatalf("trial %d: a parse that met no new label copied the inherited dictionary", trial)
		}
	}
}

// TestPreorderMisuse: the calls that would break preorder panic, and an
// empty or unfinished tree does not build.
func TestPreorderMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var p tree.Preorder
	p.Init(nil, 4, 4, 0)
	if _, err := p.Build(); err == nil {
		t.Error("an empty Preorder built")
	}
	p.Init(nil, 4, 4, 0)
	mustPanic("End before Start", p.End)
	mustPanic("AppendText before Start", func() { p.AppendText("x") })
	p.Start(p.Code("a"))
	p.Start(p.Code("b"))
	p.End()
	mustPanic("AddCode after a child", func() { p.AddCode(p.Code("c")) })
	if _, err := p.Build(); err == nil {
		t.Error("a Preorder with an open node built")
	}
	p.End()
	mustPanic("a second root", func() { p.Start(p.Code("c")) })
	mustPanic("a code outside the dictionary", func() {
		var q tree.Preorder
		q.Init(nil, 1, 1, 0)
		q.Start(tree.Code(7))
	})
}
