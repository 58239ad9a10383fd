package core

import (
	"context"
	"testing"

	"repro/internal/race"
	"repro/internal/workload"
)

// TestWarmExecAllocs pins what a warm Exec allocates on each language's
// Auto route over a 150-item site document.  Every route allocates one exec
// block (the Result and the per-execution Plan) and its answer; the
// relational routes add the kernel's per-execution state and the growth of
// its answer rows.  The similarity route keeps the pattern's codes and
// posting lists on the stack and its funnel as counts in the Plan, so it
// allocates the block and its hits.  Bit vectors come from the pool, where a
// warm Acquire/Release pair allocates nothing.
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
		{LangCQ, "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).", 15},
		{LangTwig, "//item[name]/description//keyword", 14},
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
func TestExecIntoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	eng := New(workload.SiteDocument(workload.DocSpec{Items: 150, Regions: 6, DescriptionDepth: 2, Seed: 1}))
	ctx := context.Background()
	var x Execution
	for _, q := range []struct{ lang, text string }{
		{LangXPath, "//item[name]/description//keyword"},
		{LangStream, "//item//keyword"},
		{LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."},
		{LangSimilar, "k=10 description(parlist(listitem(keyword text)))"},
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
		if got != 1 {
			t.Errorf("%s %q: a warm ExecInto allocates %.0f objects, want 1 (the answer)", q.lang, q.text, got)
		}
	}
}
