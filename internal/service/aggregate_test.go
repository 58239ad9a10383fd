package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// docNode is one (document, node) match of a flattened aggregate.
type docNode struct {
	Doc  string
	Node tree.NodeID
}

// docAnswer is one (document, tuple) match of a flattened aggregate.
type docAnswer struct {
	Doc    string
	Answer cq.Answer
}

// flatten reads an aggregate's Parts in sequence, the order the envelope
// writes them in.
func flatten(agg *CorpusResult) (nodes []docNode, answers []docAnswer) {
	for _, p := range agg.Parts {
		for _, n := range p.Nodes {
			nodes = append(nodes, docNode{p.Doc, n})
		}
		for _, a := range p.Answers {
			answers = append(answers, docAnswer{p.Doc, a})
		}
	}
	return nodes, answers
}

// TestAggregateOrderingAndLimit feeds Aggregate hand-built fan-out results in
// QueryCorpus's order (document names ascending, each document's nodes in
// document order) and checks the (doc, node) total order, the limit cutting
// inside a document, and the failure accounting.
func TestAggregateOrderingAndLimit(t *testing.T) {
	results := []DocResult{
		{Doc: "a", Version: 3, Result: &core.Result{Nodes: []tree.NodeID{2, 9}}},
		{Doc: "b", Version: 1, Result: &core.Result{Nodes: []tree.NodeID{7}}},
		{Doc: "c", Version: 2, Result: &core.Result{Nodes: []tree.NodeID{1, 5}}},
		{Doc: "d", Err: errors.New("boom")},
	}
	agg := Aggregate(results, 0)
	if agg.Docs != 4 || agg.Total != 5 || agg.Truncated {
		t.Fatalf("docs=%d total=%d truncated=%v", agg.Docs, agg.Total, agg.Truncated)
	}
	want := []docNode{{"a", 2}, {"a", 9}, {"b", 7}, {"c", 1}, {"c", 5}}
	if nodes, _ := flatten(agg); fmt.Sprint(nodes) != fmt.Sprint(want) {
		t.Errorf("nodes = %v, want %v", nodes, want)
	}
	for _, p := range agg.Parts {
		if want := map[string]uint64{"a": 3, "b": 1, "c": 2}[p.Doc]; p.Version != want {
			t.Errorf("part %s: version %d, want %d", p.Doc, p.Version, want)
		}
	}
	if len(agg.Failed) != 1 || agg.Failed[0].Doc != "d" {
		t.Errorf("failed = %v", agg.Failed)
	}

	limited := Aggregate(results, 3)
	nodes, _ := flatten(limited)
	if len(nodes) != 3 || !limited.Truncated || limited.Total != 5 {
		t.Errorf("limit=3: nodes=%d truncated=%v total=%d",
			len(nodes), limited.Truncated, limited.Total)
	}
	if fmt.Sprint(nodes) != fmt.Sprint(want[:3]) {
		t.Errorf("limited nodes = %v, want %v", nodes, want[:3])
	}
	if len(limited.Parts) != 2 {
		t.Errorf("limit=3: %d parts, want 2 (document c contributes nothing)", len(limited.Parts))
	}
}

// TestAggregateAnswersOrdering checks the tuple ordering of cq/twig results:
// document name first, lexicographic tuple order second.
func TestAggregateAnswersOrdering(t *testing.T) {
	results := []DocResult{
		{Doc: "a", Result: &core.Result{Answers: []cq.Answer{{5, 5}}}},
		{Doc: "b", Result: &core.Result{Answers: []cq.Answer{{2, 9}, {3, 1}}}},
	}
	agg := Aggregate(results, 0)
	want := []docAnswer{
		{Doc: "a", Answer: cq.Answer{5, 5}},
		{Doc: "b", Answer: cq.Answer{2, 9}},
		{Doc: "b", Answer: cq.Answer{3, 1}},
	}
	if _, answers := flatten(agg); fmt.Sprint(answers) != fmt.Sprint(want) {
		t.Errorf("answers = %v, want %v", answers, want)
	}
	if agg.Total != 3 {
		t.Errorf("total = %d, want 3", agg.Total)
	}
}

// TestQueryCorpusAggregated checks the end-to-end path: fan-out, merge, and
// the guarantee that aggregation order is independent of worker scheduling.
func TestQueryCorpusAggregated(t *testing.T) {
	s := corpusService(t, 5, WithWorkers(4))
	ctx := context.Background()
	agg := Aggregate(s.QueryCorpus(ctx, core.LangXPath, "//keyword"), 0)
	if agg.Docs != 5 || len(agg.Failed) != 0 {
		t.Fatalf("docs=%d failed=%v", agg.Docs, agg.Failed)
	}
	nodes, _ := flatten(agg)
	if agg.Total == 0 || agg.Total != len(nodes) {
		t.Fatalf("total=%d nodes=%d", agg.Total, len(nodes))
	}
	if !sort.SliceIsSorted(nodes, func(i, j int) bool {
		if nodes[i].Doc != nodes[j].Doc {
			return nodes[i].Doc < nodes[j].Doc
		}
		return nodes[i].Node < nodes[j].Node
	}) {
		t.Error("aggregated nodes not in (doc, node) order")
	}
	// Repeat with a different worker width: byte-identical aggregate.
	s2 := corpusService(t, 5, WithWorkers(1))
	nodes2, _ := flatten(Aggregate(s2.QueryCorpus(ctx, core.LangXPath, "//keyword"), 0))
	if fmt.Sprint(nodes) != fmt.Sprint(nodes2) {
		t.Error("aggregate depends on worker scheduling")
	}

	limited := Aggregate(s.QueryCorpus(ctx, core.LangXPath, "//keyword"), 3)
	kept, _ := flatten(limited)
	if len(kept) != 3 || !limited.Truncated || limited.Total != agg.Total {
		t.Errorf("limit=3: nodes=%d truncated=%v total=%d (full total %d)",
			len(kept), limited.Truncated, limited.Total, agg.Total)
	}
}
