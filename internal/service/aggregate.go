package service

import (
	"cmp"
	"slices"

	"repro/internal/cq"
	"repro/internal/tree"
)

// DocPart is one document's share of an aggregated corpus result: sub-slices
// of that document's own core.Result, already cut at the aggregation limit.
// The slices are shared with the Result; treat them as read-only.
type DocPart struct {
	// Doc is the document name.
	Doc string
	// Version is the document version the query executed against.
	Version uint64
	// Nodes are the document's matched nodes, in document order.
	Nodes []tree.NodeID
	// Answers are the document's answer tuples, sorted and deduplicated.
	Answers []cq.Answer
}

// CorpusHit is one ranked similarity match of an aggregated corpus result:
// a (document, node) pair with its tree edit distance to the pattern.
type CorpusHit struct {
	// Doc is the document name.
	Doc string
	// Version is the document version the query executed against.
	Version uint64
	// Node is the root of the matched subtree in that document.
	Node tree.NodeID
	// Distance is the tree edit distance between the pattern and the subtree.
	Distance int
}

// DocError reports one document that failed during a corpus fan-out.
type DocError struct {
	// Doc is the document name.
	Doc string
	// Err is the prepare or execution error.
	Err error
}

// CorpusResult is the merged, directly-consumable view of a corpus fan-out.
// Parts carry the node and answer matches, Hits the ranked similarity
// matches; a query populates one of the two, matching its language.
type CorpusResult struct {
	// Docs is the number of documents the query fanned out to.
	Docs int
	// Failed lists the documents whose query errored (deadline, removal,
	// prepare failure), in document-name order.  Successful documents still
	// contribute matches: corpus results are partial under failure.
	Failed []DocError
	// Parts are the documents' node and answer matches in document-name
	// order, one per document that contributes any; read in sequence they
	// are the corpus's matches in (document name, node id or answer tuple)
	// order, truncated to the aggregation limit.
	Parts []DocPart
	// Hits are the merged ranked similarity matches in (distance, document
	// name, node id) order — the corpus-wide top-k assembled from the
	// per-document k-heaps — truncated to the aggregation limit.
	Hits []CorpusHit
	// Total counts all matches across the corpus before the limit was
	// applied.
	Total int
	// Truncated reports whether the limit dropped any matches.
	Truncated bool
}

// Aggregate merges per-document fan-out results, given in document-name
// order as QueryCorpus returns them, into one CorpusResult with a stable
// total order, so equal corpora always produce identical aggregates.  Node and answer matches are ordered by
// document name, then node id (or answer tuple): since each core.Result
// holds its nodes in document order and its answers sorted, that order is
// the documents' own lists read in sequence, and Parts shares them rather
// than copying.  Ranked similarity results instead merge by (distance,
// document name, node id) — each document contributed its own k-heap, so
// cutting the merged list at the limit yields the corpus-wide top-k under
// the same deterministic order.  limit bounds the number of merged matches
// kept (<= 0 means unlimited); Total still counts everything, so callers can
// report "showing N of M".
func Aggregate(results []DocResult, limit int) *CorpusResult {
	agg := &CorpusResult{Docs: len(results)}
	kept := 0 // node and answer matches in Parts
	for _, r := range results {
		if r.Err != nil {
			agg.Failed = append(agg.Failed, DocError{Doc: r.Doc, Err: r.Err})
			continue
		}
		if r.Result == nil {
			continue
		}
		res := r.Result
		agg.Total += len(res.Nodes) + len(res.Answers) + len(res.Hits)
		if agg.Hits == nil && len(res.Hits) > 0 {
			agg.Hits = make([]CorpusHit, 0, len(res.Hits)*len(results)) // k per document
		}
		for _, h := range res.Hits {
			agg.Hits = append(agg.Hits, CorpusHit{Doc: r.Doc, Version: r.Version, Node: h.Node, Distance: h.Distance})
		}
		part := DocPart{Doc: r.Doc, Version: r.Version, Nodes: res.Nodes, Answers: res.Answers}
		if limit > 0 {
			room := limit - kept
			part.Nodes = part.Nodes[:min(room, len(part.Nodes))]
			part.Answers = part.Answers[:min(room-len(part.Nodes), len(part.Answers))]
		}
		if n := len(part.Nodes) + len(part.Answers); n > 0 {
			if agg.Parts == nil {
				agg.Parts = make([]DocPart, 0, len(results))
			}
			agg.Parts = append(agg.Parts, part)
			kept += n
		}
	}
	slices.SortFunc(agg.Hits, func(a, b CorpusHit) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Doc, b.Doc); c != 0 {
			return c
		}
		return cmp.Compare(a.Node, b.Node)
	})
	if limit > 0 && len(agg.Hits) > limit {
		agg.Hits = agg.Hits[:limit]
	}
	agg.Truncated = kept+len(agg.Hits) < agg.Total
	return agg
}
