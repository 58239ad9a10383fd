// Corpus: serve queries over many documents at once through the corpus query
// service — a map of per-document engines with an LRU plan cache, so
// repeated one-shot queries run compile-free, plus a corpus-wide fan-out and
// prepared streaming XPath.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/workload"
)

func main() {
	// A corpus of synthetic auction-site documents of growing size, fanned
	// out on 4 workers.
	svc := service.New(service.WithWorkers(4), service.WithPlanCacheSize(128))
	for i := 1; i <= 6; i++ {
		doc := workload.SiteDocument(workload.DocSpec{Items: 25 * i, Regions: 4, DescriptionDepth: 2, Seed: int64(i)})
		if err := svc.Add(fmt.Sprintf("site-%02d", i), doc); err != nil {
			log.Fatal(err)
		}
	}
	ctx := context.Background()

	// One-shot queries against named documents go through the plan cache:
	// the second call for the same (language, text) only executes, on any
	// document.
	const q = "//item[name]/description//keyword"
	for i := 0; i < 2; i++ {
		res, _, err := svc.Query(ctx, "site-03", core.LangXPath, q)
		if err != nil {
			log.Fatal(err)
		}
		st := svc.Stats()
		fmt.Printf("site-03 %s -> %d nodes (plan cache: %d hits, %d misses)\n",
			q, len(res.Nodes), st.PlanCacheHits, st.PlanCacheMisses)
	}

	// Corpus-wide fan-out: the same query against every document, executed on
	// the service's worker pool, results in document-name order.
	fmt.Println("\nfan-out //keyword across the corpus:")
	for _, r := range svc.QueryCorpus(ctx, core.LangXPath, "//keyword") {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  %s: %d keywords\n", r.Doc, len(r.Result.Nodes))
	}

	// Streaming XPath joins the same pipeline: LangStream compiles the
	// transducer once for the corpus, and each execution walks a document.
	fmt.Println("\nprepared streaming //item//keyword across the corpus:")
	for _, r := range svc.QueryCorpus(ctx, core.LangStream, "//item//keyword") {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  %s: %d matches via %s\n", r.Doc, len(r.Result.Nodes), r.Plan.Technique)
	}

	// Corpus-level aggregation: instead of per-document result slices, merge
	// everything into one stably-ordered (document, node) list with a limit —
	// the shape the treeqd HTTP front-end serves — under a per-document
	// execution budget so one slow document cannot stall the fan-out.
	fmt.Println("\naggregated //keyword across the corpus (first 8 of the merge):")
	agg := service.Aggregate(svc.QueryCorpus(ctx, core.LangXPath, "//keyword",
		service.WithDocTimeout(2*time.Second)), 8)
	shown := 0
	for _, p := range agg.Parts {
		for _, n := range p.Nodes {
			fmt.Printf("  %s node %d\n", p.Doc, n)
		}
		shown += len(p.Nodes)
	}
	fmt.Printf("  (%d of %d matches shown, truncated=%v, %d failed docs)\n",
		shown, agg.Total, agg.Truncated, len(agg.Failed))

	st := svc.Stats()
	fmt.Printf("\nservice: %d docs, %d queries, plan cache %d/%d (hits=%d misses=%d evictions=%d skips=%d)\n",
		st.Docs, st.Queries, st.PlanCacheSize, st.PlanCacheCap,
		st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEvictions, st.PlanCacheSkips)
}
