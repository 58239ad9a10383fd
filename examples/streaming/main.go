// Streaming evaluation of forward XPath over documents of equal size but
// different depth, reproducing the Section-7 observation that streaming
// memory is Theta(depth): shallow documents stream in constant memory, a
// degenerate path-shaped document needs memory linear in its size.
package main

import (
	"fmt"
	"log"

	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func main() {
	const n = 200_000
	query := "//item//keyword"
	matcher, err := stream.Compile(xpath.MustParse(query))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streaming query %s over documents of %d nodes:\n\n", query, n)
	fmt.Printf("%-28s %10s %10s %14s %10s\n", "document shape", "nodes", "depth", "memory cells", "matches")

	docs := []struct {
		name string
		doc  *tree.Tree
	}{
		{"site catalog (shallow)", workload.SiteDocument(workload.DocSpec{Items: n / 12, Regions: 6, DescriptionDepth: 2, Seed: 1})},
		{"random tree", workload.RandomTree(workload.TreeSpec{Nodes: n, Seed: 2, Alphabet: []string{"item", "keyword", "x"}})},
		{"deep nested items", deepItems(n)},
	}
	for _, d := range docs {
		stats, err := matcher.Run(xmldoc.Events(d.doc), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %10d %10d %14d %10d\n", d.name, d.doc.Len(), stats.MaxDepth, stats.MaxStateCells, stats.Matches)
	}
	fmt.Println("\nThe memory high-watermark tracks the document depth, not its size --")
	fmt.Println("the lower bound of Grohe/Koch/Schweikardt discussed in Section 7.")
}

// deepItems builds a pathological document: items nested inside each other
// n/2 deep, each holding one keyword.
func deepItems(n int) *tree.Tree {
	b := tree.NewBuilder()
	cur := b.AddRoot("item")
	count := 1
	for count+2 <= n {
		b.AddChild(cur, "keyword")
		cur = b.AddChild(cur, "item")
		count += 2
	}
	return b.MustBuild()
}
