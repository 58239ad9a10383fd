package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/tree"
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
// route of the workload prepared and run keeps at most 47 live bytes per node
// (43.5 measured on linux/amd64, go1.24) — the tree and what the routes read
// beside it.  It logs the bytes of each owner:
//
//   - columns: parent, prevSibling, depth, size and the label and text
//     offsets (six int32 per node), and one int32 per label code;
//   - text: the one preorder text string;
//   - dictionary: the label names (one string), their end offsets and the
//     hash table of their codes, what the tree weighs beyond its columns and
//     text;
//   - engine: what core.New allocates, the index skeleton;
//   - TED view: the similarity route's size-ordered node column;
//   - masks: one bit per node for every label mask built;
//   - lists: the per-label node lists, and the plans, which are small.
func TestDefaultRoutesBytesPerNode(t *testing.T) {
	src := xmldoc.Serialize(workload.SiteDocument(workload.DocSpec{Items: 1000, Regions: 6, DescriptionDepth: 2, Seed: 1}), false)
	ctx := context.Background()
	base := liveHeap()

	doc := xmldoc.MustParse(src)
	treeBytes := liveHeap() - base
	eng := core.New(doc)
	engineBytes := liveHeap() - base - treeBytes
	eng.Index().TED()
	tedBytes := liveHeap() - base - treeBytes - engineBytes
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
	nodes := doc.Len()
	st := eng.Index().Snapshot()
	codes, text := 0, 0
	for v := range tree.NodeID(nodes) {
		codes += len(doc.LabelCodes(v))
		text += len(doc.Text(v))
	}
	columns := 4 * (6*nodes + codes)
	masks := int(st.LabelMaskBuilds) * 8 * bitset.WordsFor(nodes)
	perNode := func(b int) float64 { return float64(b) / float64(nodes) }
	t.Logf("%d nodes, %d labels in the dictionary, %d live bytes: %.1f B/node", nodes, doc.Dict().Len(), live, perNode(int(live)))
	t.Logf("columns %.1f, text %.1f, dictionary %.1f, engine %.1f, TED view %.1f, masks %.1f, lists and plans %.1f B/node",
		perNode(columns), perNode(text), perNode(int(treeBytes)-columns-text), perNode(int(engineBytes)),
		perNode(int(tedBytes)), perNode(masks), perNode(int(live-treeBytes-engineBytes-tedBytes)-masks))
	t.Logf("index %+v", st)
	if perNode(int(live)) > 47 {
		t.Errorf("%.1f live bytes per node with the six scan_mix routes warm, want at most 47", perNode(int(live)))
	}
	runtime.KeepAlive(plans)
	runtime.KeepAlive(src)
}
