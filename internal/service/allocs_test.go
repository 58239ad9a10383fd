package service

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/workload"
)

// TestCorpusFanoutAllocs pins what one warm corpus query allocates in
// process, fan-out and aggregation, over 32 documents of 100 items: the
// shape of the corpus_fanout benchmark workload, whose queries these are.
// Each document allocates its answer and nothing else (32 of the 41): every
// document's Result and Plan live in one block per request, and a
// similarity exec keeps its scratch on the stack and its funnel as counts.
// The other nine are per request: that block, the result slice, the worker
// pool and the aggregate; a call without options keeps its configuration
// off the heap.  The sorted names are the corpus's own, which only Add and
// Remove replace.
func TestCorpusFanoutAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("exact allocation counts: the race detector allocates, and sync.Pool drops items under it")
	}
	s := New(WithWorkers(2))
	for i := range 32 {
		doc := workload.SiteDocument(workload.DocSpec{Items: 100, Regions: 6, DescriptionDepth: 2, Seed: int64(i + 1)})
		if err := s.Add(fmt.Sprintf("d%02d", i), doc); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, q := range []struct {
		lang, text string
		limit      int
		allocs     float64
	}{
		{core.LangXPath, "//item[name]/description//keyword", 100, 41},
		{core.LangXPath, "//keyword", 0, 41},
		{core.LangXPath, "//region//item[name]", 20, 41},
		{core.LangSimilar, "k=5 description(parlist(listitem(keyword text)))", 5, 41},
	} {
		run := func() *CorpusResult { return Aggregate(s.QueryCorpus(ctx, q.lang, q.text), q.limit) }
		if agg := run(); agg.Docs != 32 || len(agg.Failed) != 0 || agg.Total == 0 {
			t.Fatalf("%s: docs %d, failed %v, total %d", q.text, agg.Docs, agg.Failed, agg.Total)
		}
		got := testing.AllocsPerRun(20, func() { run() })
		t.Logf("%-8s %-52q %4.0f allocs per corpus query", q.lang, q.text, got)
		if got > q.allocs {
			t.Errorf("%s %q over 32 documents allocates %.0f objects, want at most %.0f", q.lang, q.text, got, q.allocs)
		}
	}
}
