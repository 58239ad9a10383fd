// Twig matching over an XMark-style catalog: the same twig pattern
// (//item[name]/description//keyword) evaluated four ways -- holistic twig
// join, arc-consistency enumeration, Yannakakis, and naive backtracking --
// with timings, demonstrating the Section-4/Section-6 machinery on the kind
// of workload the paper's introduction motivates.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/twigjoin"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

func main() {
	doc := workload.SiteDocument(workload.DocSpec{Items: 2000, Regions: 6, DescriptionDepth: 3, Seed: 42})
	fmt.Printf("catalog: %d nodes, %d items\n\n", doc.Len(), len(doc.NodesWithLabel("item")))

	tw := &twigjoin.Twig{
		Labels: []string{"item", "name", "description", "keyword"},
		Parent: []int{-1, 0, 0, 2},
		Edge: []twigjoin.EdgeKind{
			twigjoin.DescendantEdge, twigjoin.ChildEdge, twigjoin.ChildEdge, twigjoin.DescendantEdge,
		},
	}
	fmt.Printf("twig pattern: %s\n\n", tw)
	q := tw.ToCQ()

	run := func(name string, f func() (int, error)) {
		start := time.Now()
		n, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("  %-34s %6d matches in %v\n", name, n, time.Since(start).Round(time.Microsecond))
	}

	run("holistic twig join (join kernel)", func() (int, error) {
		ms, err := twigjoin.MatchTwig(doc, tw)
		return len(ms), err
	})
	run("arc-consistency enumeration", func() (int, error) {
		ans, err := arccons.EnumerateAcyclic(q, doc)
		return len(ans), err
	})
	run("Yannakakis full reducer", func() (int, error) {
		ans, err := yannakakis.Evaluate(q, doc)
		return len(ans), err
	})
	run("naive backtracking (baseline)", func() (int, error) {
		return len(cq.EvaluateNaive(q, doc)), nil
	})
}
