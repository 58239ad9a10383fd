package arccons

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

func TestMain(m *testing.M) { poolcheck.Main(m, Outstanding, bitset.Outstanding) }

// reducedDomains runs only the full reducer and returns its domains as a
// pre-valuation; ok is false when some domain emptied.
func reducedDomains(t *testing.T, q *cq.Query, tr *tree.Tree) (PreValuation, bool) {
	t.Helper()
	c, err := Compile(q)
	if err != nil {
		t.Fatalf("Compile(%s): %v", q, err)
	}
	k := newKernel(tr, nil, c.labels)
	k.c = c
	defer k.release()
	if !k.reduce(context.Background()) {
		return nil, false
	}
	pv := PreValuation{}
	for i, v := range q.Variables() {
		pv[v] = k.dom[i].Clone()
	}
	return pv, true
}

// oneAtomPerPair reports whether no two binary atoms share a variable pair
// and none is a self-loop: the queries for which arc-consistency per atom
// (MaxPreValuation) and the reducer per forest edge are the same thing.
func oneAtomPerPair(q *cq.Query) bool {
	seen := map[cq.Edge]bool{}
	for _, a := range q.Axes {
		e := cq.Edge{A: min(a.From, a.To), B: max(a.From, a.To)}
		if a.From == a.To || seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

// checkAgainstOracles asserts kernel == naive == Yannakakis on (q, tr), and
// reduced domains == MaxPreValuation (Prop. 6.9) where that is defined.  The
// tree is printed in canonical s-expression form on failure.
func checkAgainstOracles(t *testing.T, name string, q *cq.Query, tr *tree.Tree) {
	t.Helper()
	want := cq.EvaluateNaive(q, tr)
	for _, ix := range []LabelIndex{nil, index.New(tr)} {
		got, err := EnumerateAcyclicIndexed(q, tr, ix)
		if err != nil {
			t.Fatalf("%s: kernel on %s: %v", name, q, err)
		}
		if !slices.EqualFunc(got, want, func(a, b cq.Answer) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: %s on %s (indexed=%v)\nkernel %v\nnaive  %v", name, q, tr, ix != nil, got, want)
		}
	}
	yan, err := yannakakis.Evaluate(q, tr)
	if err != nil {
		t.Fatalf("%s: yannakakis on %s: %v", name, q, err)
	}
	if !cq.AnswersEqual(yan, want) {
		t.Fatalf("%s: %s on %s\nyannakakis %v\nnaive      %v", name, q, tr, yan, want)
	}
	if !oneAtomPerPair(q) {
		return
	}
	pv, ok, err := MaxPreValuation(q, tr)
	if err != nil {
		t.Fatalf("%s: MaxPreValuation(%s): %v", name, q, err)
	}
	red, rok := reducedDomains(t, q, tr)
	if ok != rok {
		t.Fatalf("%s: %s on %s: reducer ok=%v, MaxPreValuation ok=%v", name, q, tr, rok, ok)
	}
	for _, v := range q.Variables() {
		if ok && !red[v].Equal(pv[v]) {
			t.Fatalf("%s: %s on %s: variable %s\nreduced          %v\nmax prevaluation %v", name, q, tr, v, red[v], pv[v])
		}
	}
}

// TestKernelDifferentialRandom is the CQ slice of the cross-technique oracle:
// fixed-seed random acyclic queries over all fifteen axes against random
// scrambled, multi-labeled trees.
func TestKernelDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		tr := workload.ScrambledTree(6+int(seed%5)*6, seed)
		spec := cq.GenSpec{
			Vars: 1 + int(seed%5), HeadVars: int(seed % 4), Seed: seed,
			Alphabet: []string{"a", "b", "c"}, LabelProb: 0.5, Axes: tree.AllAxes(),
		}
		q := cq.RandomTwig(spec)
		if seed%3 == 0 {
			q = cq.RandomPath(spec)
		}
		checkAgainstOracles(t, fmt.Sprintf("seed %d", seed), q, tr)
	}
}

// TestKernelHandCases covers the query shapes the generators do not produce.
func TestKernelHandCases(t *testing.T) {
	cases := map[string]string{
		"reflexive self-loop":     "Q(x) :- Child*(x, x), Lab[a](x).",
		"irreflexive self-loop":   "Q(x) :- Child+(x, x), Lab[a](x).",
		"self-loop beside edge":   "Q(x, y) :- NextSibling*(x, x), Child(x, y).",
		"parallel atoms":          "Q(x, y) :- Child+(x, y), Child(x, y), Lab[a](x).",
		"parallel opposed atoms":  "Q(x, y) :- Child+(x, y), Parent(y, x).",
		"parallel unsatisfiable":  "Q(x, y) :- Child(x, y), NextSibling(x, y).",
		"parallel below a head":   "Q(x) :- Child+(x, y), Child(x, y), Lab[b](y).",
		"disconnected":            "Q(x, y) :- Lab[a](x), Lab[b](y).",
		"disconnected, one empty": "Q(x) :- Lab[a](x), Lab[nope](y).",
		"disconnected gate":       "Q(x) :- Lab[a](x), Child(u, v), Lab[c](v).",
		"boolean":                 "Q :- Lab[a](x), Following(x, y), Lab[b](y).",
		"boolean empty body":      "Q :- true.",
		"inner non-head variable": "Q(x, z) :- Child(y, x), Child(y, z).",
		"projection to a leaf":    "Q(z) :- Lab[a](x), Child+(x, y), Child+(y, z).",
		"unlabeled variables":     "Q(x, y) :- Preceding(x, y).",
		"repeated head variable":  "Q(x, x) :- Lab[a](x), Child(x, y).",
		"head order reversed":     "Q(y, x) :- Child+(x, y), Lab[b](y).",
	}
	for name, text := range cases {
		q := cq.MustParse(text)
		for seed := int64(0); seed < 12; seed++ {
			checkAgainstOracles(t, name, q, workload.ScrambledTree(5+int(seed)*3, seed))
		}
	}
}

// TestKernelCheckpointCadence proves both phases poll ctx on their own cadence
// and stop at the first poll that fails, without asking ctx again.  The
// reducer's unit of work is one semi-join — an axis image takes no ctx — so it
// polls once after each, and an aborted run has booked exactly the visits of
// the semi-joins it finished.  The enumeration polls once per
// enumCheckpointInterval visits, and an aborted run stops on that multiple.
func TestKernelCheckpointCadence(t *testing.T) {
	tr := workload.ScrambledTree(6000, 1)
	inner := 0
	for v := range tree.NodeID(tr.Len()) {
		if !tr.IsLeaf(v) {
			inner++
		}
	}
	cases := []struct {
		name, query string
		aborted     int64
	}{
		// Boolean: the reducer is all there is.  Bottom-up, the first semi-join
		// steps through every rank (z is unconstrained), the second through the
		// ranks it left y: the inner nodes.
		{"reduction", "Q :- Child+(x, y), Child+(y, z).", int64(tr.Len() + inner)},
		// One variable: no semi-join at all, every visit is an enumeration visit.
		{"enumeration", "Q(x) :- Child*(x, x).", 2 * enumCheckpointInterval},
	}
	for _, tc := range cases {
		c, err := Compile(cq.MustParse(tc.query))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.EnumerateCtx(context.Background(), tr, nil); err != nil {
			t.Fatal(err)
		}
		full := c.Visits()
		if full < 4*enumCheckpointInterval || full <= tc.aborted {
			t.Fatalf("%s: only %d visits, want several checkpoint intervals and more than %d", tc.name, full, tc.aborted)
		}
		// Err call 1 is the entry guard; calls 2 and 3 are the first two polls.
		ctx := &countingCtx{Context: context.Background(), failAfter: 3}
		if _, err := c.EnumerateCtx(ctx, tr, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if got := c.Visits() - full; got != tc.aborted {
			t.Errorf("%s: aborted after %d visits, want %d", tc.name, got, tc.aborted)
		}
		if ctx.calls != 3 {
			t.Errorf("%s: ctx.Err called %d times, want 3", tc.name, ctx.calls)
		}
	}
}
