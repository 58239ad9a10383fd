package arccons

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/race"
	"repro/internal/workload"
)

// triangles are cyclic Boolean queries, one per tractable signature of
// Theorem 6.8, all satisfiable on site documents.
var triangles = []struct{ name, text string }{
	{"tau1", "Q :- Lab[item](a), Lab[description](b), Lab[keyword](c), Child+(a, b), Child+(b, c), Child+(a, c)."},
	{"tau2", "Q :- Lab[keyword](a), Lab[keyword](b), Lab[name](c), Following(a, b), Following(b, c), Following(a, c)."},
	{"tau3", "Q :- Lab[item](a), Lab[name](b), Lab[description](c), Child(a, b), NextSibling+(b, c), Child(a, c)."},
}

// doublingFloor is the per-call allocation below which the byte ratio is not
// checked: a warm call allocates only its small bookkeeping, and a bit
// vector the pool happened to drop moves that by a few hundred bytes.
const doublingFloor = 16 << 10

// TestXPropertyDoubling pins Theorem 6.5's O(||A||·|Q|) bound on counts that
// do not depend on the machine: for each triangle, each doubling of the
// document may grow the bytes SatisfiableXIndexedCtx allocates per call, and
// the revisions of its fixpoint, at most 2.3x.  The Horn-SAT encoding this
// replaced grew about 4x per doubling on the tau2 triangle.  At every size
// the fixpoint must also equal the Horn-SAT reference.
func TestXPropertyDoubling(t *testing.T) {
	ctx := context.Background()
	type counts struct {
		bytes     float64
		revisions int
	}
	measure := func(items int, text string) counts {
		doc := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 1})
		ix := index.New(doc)
		q := cq.MustParse(text)
		revisions := sameAsHorn(t, fmt.Sprintf("%d items", items), q, doc, ix)
		if sat, err := SatisfiableXIndexedCtx(ctx, q, doc, ix); err != nil || !sat { // warms the masks
			t.Fatalf("%d items: SatisfiableXIndexedCtx(%s) = %v, %v; want true", items, q, sat, err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			SatisfiableXIndexedCtx(ctx, q, doc, ix)
		}
		runtime.ReadMemStats(&after)
		return counts{float64(after.TotalAlloc-before.TotalAlloc) / runs, revisions}
	}
	for _, tri := range triangles {
		prev := measure(25, tri.text)
		for _, items := range []int{50, 100} {
			cur := measure(items, tri.text)
			t.Logf("%s: %d items: %.0f B/call (%.2fx), %d revisions (%.2fx)", tri.name, items,
				cur.bytes, cur.bytes/prev.bytes, cur.revisions, float64(cur.revisions)/float64(prev.revisions))
			if cur.revisions*10 > prev.revisions*23 {
				t.Errorf("%s: revisions grew %d -> %d at %d items, more than 2.3x", tri.name, prev.revisions, cur.revisions, items)
			}
			if !race.Enabled && cur.bytes > doublingFloor && cur.bytes > 2.3*prev.bytes {
				t.Errorf("%s: bytes per call grew %.0f -> %.0f at %d items, more than 2.3x", tri.name, prev.bytes, cur.bytes, items)
			}
			prev = cur
		}
	}
}
