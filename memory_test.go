package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// scanMixAll are the six queries of the scan_mix benchmark workload
// (bench/treeload/workload.go): scanMixQueries plus the second XPath query
// and the similarity search.
var scanMixAll = append(scanMixQueries[:len(scanMixQueries):len(scanMixQueries)],
	struct{ name, lang, text string }{"xpath-item-not-mailbox-name", core.LangXPath, "//item[not(mailbox)]/name"},
	struct{ name, lang, text string }{"similar-description", core.LangSimilar, "k=10 description(parlist(listitem(keyword text)))"},
)

// liveHeap returns the bytes of live heap objects after a full collection
// (two cycles, so that sync.Pool victim caches are dropped too).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDefaultRoutesBytesPerNode is the memory guard of the default daemon: a
// scan_mix document (1,000 items, parsed as the daemon parses it) with every
// route of the workload prepared and run keeps at most 110 live bytes per
// node — the tree (parent, size, depth and left-sibling columns, labels and
// text; every other link and order is computed), and what
// the routes read beside it: label masks, the one node list per label and
// the TED view — and has built no XASR, side relation or pair relation.
func TestDefaultRoutesBytesPerNode(t *testing.T) {
	src := xmldoc.Serialize(workload.SiteDocument(workload.DocSpec{Items: 1000, Regions: 6, DescriptionDepth: 2, Seed: 1}), false)
	ctx := context.Background()
	base := liveHeap()

	eng := core.New(xmldoc.MustParse(src))
	plans := make([]*core.PreparedQuery, 0, len(scanMixAll))
	for _, q := range scanMixAll {
		pq, err := eng.Prepare(q.lang, q.text)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if _, _, err := pq.Exec(ctx); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		plans = append(plans, pq)
	}

	live := liveHeap() - base
	nodes := eng.Document().Len()
	perNode := float64(live) / float64(nodes)
	st := eng.Index().Snapshot()
	t.Logf("%d nodes, %d live bytes: %.1f B/node; index %+v", nodes, live, perNode, st)
	if perNode > 110 {
		t.Errorf("%.1f live bytes per node with the six scan_mix routes warm, want at most 110", perNode)
	}
	if st.XASRBuilds != 0 || st.LabelRowBuilds != 0 || st.PairBuilds != 0 {
		t.Errorf("a default route built the relational encoding: %+v", st)
	}
	runtime.KeepAlive(plans)
	runtime.KeepAlive(src)
}
