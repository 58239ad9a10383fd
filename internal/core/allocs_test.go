package core

import (
	"context"
	"testing"

	"repro/internal/race"
	"repro/internal/workload"
)

// TestWarmExecAllocs pins what a warm Exec allocates on each language's
// Auto route over a 150-item site document.  Every route allocates one exec
// block (the Result and the per-execution Plan) and its answer.  On the
// relational routes the answer is two objects, the one exact-size block of
// answer nodes and the tuple headers sliced over it: the kernel's state and
// row scratch come from its pool.  A cyclic query's union adds the two per
// disjunct that answers and the merged headers.  The similarity route keeps
// the pattern's codes and posting lists on the stack and its funnel as counts
// in the Plan, so it allocates the block and its hits.  Bit vectors come from
// the pool, where a warm Acquire/Release pair allocates nothing.
func TestWarmExecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	eng := New(workload.SiteDocument(workload.DocSpec{Items: 150, Regions: 6, DescriptionDepth: 2, Seed: 1}))
	ctx := context.Background()
	for _, q := range []struct {
		lang, text string
		allocs     float64
	}{
		{LangXPath, "//item[name]/description//keyword", 2},
		{LangStream, "//item//keyword", 2},
		{LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P.", 2},
		{LangCQ, "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).", 3},
		{LangTwig, "//item[name]/description//keyword", 3},
		{LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t).", 6},
		{LangSimilar, "k=10 description(parlist(listitem(keyword text)))", 2},
	} {
		pq, err := eng.Prepare(q.lang, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pq.Exec(ctx); err != nil { // builds the index artifacts and warms the pools
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() { pq.Exec(ctx) })
		t.Logf("%-8s %4.0f allocs per warm Exec", q.lang, got)
		if got > q.allocs {
			t.Errorf("%s %q: a warm Exec allocates %.0f objects, want at most %.0f", q.lang, q.text, got, q.allocs)
		}
	}
}

// TestExecIntoAllocs pins ExecInto into a reused Execution: the caller owns
// the block, so a warm execution allocates its answer and nothing else, on
// every route whose evaluation keeps its scratch in pools or on the stack.
// The answer is one object on the node routes and two on the acyclic CQ and
// twig routes: the block of answer nodes and the tuple headers over it.
func TestExecIntoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	eng := New(workload.SiteDocument(workload.DocSpec{Items: 150, Regions: 6, DescriptionDepth: 2, Seed: 1}))
	ctx := context.Background()
	var x Execution
	for _, q := range []struct {
		lang, text string
		allocs     float64
	}{
		{LangXPath, "//item[name]/description//keyword", 1},
		{LangStream, "//item//keyword", 1},
		{LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P.", 1},
		{LangSimilar, "k=10 description(parlist(listitem(keyword text)))", 1},
		{LangCQ, "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).", 2},
		{LangTwig, "//item[name]/description//keyword", 2},
	} {
		c, err := Compile(q.lang, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ExecInto(ctx, eng, &x); err != nil { // builds the index artifacts and warms the pools
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() { c.ExecInto(ctx, eng, &x) })
		t.Logf("%-8s %4.0f allocs per warm ExecInto", q.lang, got)
		if got != q.allocs {
			t.Errorf("%s %q: a warm ExecInto allocates %.0f objects, want %.0f (the answer)", q.lang, q.text, got, q.allocs)
		}
	}
}
