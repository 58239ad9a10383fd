package repro

import (
	"testing"

	"repro/internal/race"
	"repro/internal/xmldoc"
)

// TestIngestScalingLinear pins the constants of the write path's parse on
// counts that do not depend on the machine: xmldoc.Parse scans the document
// once, writing a tree's preorder columns sized up front, so what it
// allocates per node is the dictionary entries of the labels it meets
// first — under half an object per node on an update_churn document (400
// items), and no faster than the document grows.  The event buffer and
// per-element builders an earlier ingest used allocated 1.7 objects per
// node.
//
// A PUT parses against the dictionary of the version it replaces
// (xmldoc.ParseDict), where every label already has a code: then the parse
// allocates the tree, its one block of columns, its text (a buffer and the
// string it is trimmed to) and the scanner, and past 4,096 labels the set
// that counts the distinct ones — at most 8 objects whatever the document's
// size.  The exact count is skipped under the race detector, which
// allocates.
func TestIngestScalingLinear(t *testing.T) {
	measure := func(items int) (allocs, heirAllocs float64, nodes int) {
		doc, _ := joinMixDocument(items)
		src := xmldoc.Serialize(doc, false)
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := xmldoc.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		prev := xmldoc.MustParse(src).NextDict()
		heirAllocs = testing.AllocsPerRun(5, func() {
			if _, err := xmldoc.ParseDict(src, prev); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, heirAllocs, doc.Len()
	}
	small, smallHeir, smallNodes := measure(400)
	big, bigHeir, bigNodes := measure(4000)
	t.Logf("Parse allocs %.0f for %d nodes (%.2f per node) -> %.0f for %d nodes (%.2f per node)",
		small, smallNodes, small/float64(smallNodes), big, bigNodes, big/float64(bigNodes))
	t.Logf("ParseDict against the predecessor's dictionary: %.0f -> %.0f allocs", smallHeir, bigHeir)
	if !race.Enabled && (smallHeir > 8 || bigHeir > 8) {
		t.Errorf("ParseDict allocates %.0f and %.0f objects at %d and %d nodes, want at most 8 at both",
			smallHeir, bigHeir, smallNodes, bigNodes)
	}
	if bigNodes < 5*smallNodes {
		t.Errorf("%d -> %d nodes: the documents do not scale the input", smallNodes, bigNodes)
	}
	if small > 0.5*float64(smallNodes) {
		t.Errorf("Parse allocates %.0f objects for %d nodes, more than 0.5 per node", small, smallNodes)
	}
	if big > 12*small {
		t.Errorf("Parse allocations grew %.0f -> %.0f, more than 12x for 10x items", small, big)
	}
}
