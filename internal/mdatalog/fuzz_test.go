package mdatalog

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/poolcheck"
	"repro/internal/tree"
)

// FuzzCompiledVsGround fuzzes the datalog parser with the compiled solver's
// differential oracle behind it: Parse must neither panic nor hang on any
// program text, and whenever the program parses and converts to TMNF, the
// compiled solve — with a label index and without — must return exactly what
// grounding it over the tree and solving the Horn program returns.
func FuzzCompiledVsGround(f *testing.F) {
	for _, tc := range handCases {
		f.Add(tc.text, handTree)
	}
	for _, tc := range scheduleCases { // one program per schedule
		f.Add(tc.text, "a(a(a b+c) b(a c(a)) a)")
	}
	f.Add("P(x) :- Lab[a](y), Child^-1(x, y), NextSibling(y, z), Leaf(z).\n?- P.", "a+b(_ a(b) b+c)")
	f.Add("% comment\nP(x) :- Q(x).\nQ(x) :- P(y), FirstChild^-1(y, x).\nQ(x) :- LastSibling(x), FirstSibling(x).", "a")
	f.Add("P(x) :- Child(x, y), Child(y, x).", handTree)
	f.Fuzz(func(t *testing.T, text, doc string) {
		defer poolcheck.Check(t, Outstanding)
		if len(text) > 1<<12 || len(doc) > 1<<9 {
			t.Skip("oversized input")
		}
		p, err := Parse(text)
		if err != nil {
			return // rejecting a malformed program is fine; crashing is not
		}
		tm, err := p.ToTMNF()
		if err != nil {
			return // cyclic or disconnected rule bodies are out of the construction's reach
		}
		tr, err := tree.ParseSexpr(doc)
		if err != nil {
			tr = tree.MustParseSexpr(handTree)
		}
		c, err := tm.Compile()
		if err != nil {
			t.Fatalf("Compile rejected ToTMNF's output: %v\n%s", err, tm)
		}
		g, err := tm.Ground(tr)
		if err != nil {
			t.Fatalf("Ground rejected ToTMNF's output: %v\n%s", err, tm)
		}
		want := g.NodesOf(tm.Query, g.Horn.Solve())
		for _, masks := range []LabelMasks{nil, index.New(tr)} {
			got, err := c.SolveCtx(context.Background(), tr, masks)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("index %v: compiled %v, grounded %v\n%s\non %s", masks != nil, got, want, text, tr)
			}
		}
	})
}
