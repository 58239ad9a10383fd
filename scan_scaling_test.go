package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mdatalog"
	"repro/internal/race"
)

// scanMixQueries are the two stream-language queries, the datalog program and
// the first XPath query of the scan_mix benchmark workload
// (bench/treeload/workload.go): the linear-scan routes, whose cost is one pass
// over the document — for XPath and stream, a few word-parallel passes over
// rank sets — per execution.
var scanMixQueries = []struct{ name, lang, text string }{
	{"stream-item-keyword", core.LangStream, "//item//keyword"},
	{"stream-region-item-name", core.LangStream, "//region/item/name"},
	{"datalog-ancestor", core.LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."},
	{"xpath-item-description-keyword", core.LangXPath, "//item[name]/description//keyword"},
}

// scanMixEngine is an engine over a scan_mix document as the daemon holds it
// (NodeIDs are preorder ranks; see joinMixDocument).
func scanMixEngine(items int) *core.Engine {
	doc, _ := joinMixDocument(items)
	return core.New(doc)
}

// datalogDerivations solves the program once on a scan_mix document and
// returns how many atoms the compiled solver derived.
func datalogDerivations(t *testing.T, items int, text string) int64 {
	t.Helper()
	tm, err := mdatalog.MustParse(text).ToTMNF()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	doc, ix := joinMixDocument(items)
	if _, err := c.SolveCtx(context.Background(), doc, ix); err != nil {
		t.Fatal(err)
	}
	return c.Derived()
}

// TestScanScalingLinear pins the constants of the linear-scan routes on
// counts that do not depend on the machine: a warm Exec of a stream, XPath or
// datalog plan allocates exactly two objects whatever the document size, its
// exec block and its answer (stream plans run on the XPath image evaluator,
// whose sets are pooled bit vectors; the datalog solver's scratch is pooled
// too), preparing a datalog plan allocates the same at any size because it
// reads no document, and the datalog solver derives at most twelve times the
// atoms for ten times the items.  The map-per-element matcher and the
// slice-per-clause Horn store these routes replaced allocated 56 k objects
// per streaming run and 119 k per grounding at 1,000 items.
func TestScanScalingLinear(t *testing.T) {
	ctx := context.Background()
	type counts struct {
		exec, prepare float64
		answers       int
	}
	measure := func(items int, lang, text string) counts {
		eng := scanMixEngine(items)
		pq, err := eng.Prepare(lang, text)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pq.Exec(ctx) // warms the solver scratch
		if err != nil {
			t.Fatal(err)
		}
		c := counts{answers: len(res.Nodes)}
		c.exec = testing.AllocsPerRun(5, func() { pq.Exec(ctx) })
		c.prepare = testing.AllocsPerRun(3, func() { eng.Prepare(lang, text) })
		return c
	}
	for _, q := range scanMixQueries {
		small, big := measure(150, q.lang, q.text), measure(1500, q.lang, q.text)
		t.Logf("%-24s exec allocs %3.0f -> %3.0f  prepare allocs %4.0f -> %4.0f  answers %4d -> %5d",
			q.name, small.exec, big.exec, small.prepare, big.prepare, small.answers, big.answers)
		if small.answers == 0 || big.answers < 5*small.answers {
			t.Errorf("%s: %d -> %d answers: the documents do not scale the output", q.name, small.answers, big.answers)
		}
		// The race detector allocates, and sync.Pool drops a released
		// vector now and then under it, so the exact count holds only
		// without it; under it a warm Exec still allocates about the same
		// few objects at either size (datalog's solver scratch, a pool of
		// its own, refills by up to a dozen).
		if race.Enabled {
			tol, most := 4.0, 16.0
			if q.lang == core.LangDatalog {
				tol, most = 16, 32
			}
			if max(small.exec, big.exec) > most || math.Abs(small.exec-big.exec) > tol {
				t.Errorf("%s: a warm Exec allocates %.0f / %.0f objects at 150 / 1,500 items under -race, want at most %.0f and within %.0f", q.name, small.exec, big.exec, most, tol)
			}
		} else if small.exec != 2 || big.exec != 2 {
			t.Errorf("%s: a warm Exec allocates %.0f / %.0f objects at 150 / 1,500 items, want 2 (exec block and answer)", q.name, small.exec, big.exec)
		}
		if q.lang != core.LangDatalog {
			continue
		}
		// Equal (167 and 167) without the race detector, whose bookkeeping
		// moves the counts by a few objects.
		if math.Abs(small.prepare-big.prepare) > 16 {
			t.Errorf("%s: Prepare allocates %.0f objects at 150 items and %.0f at 1,500, want the same: it reads no document", q.name, small.prepare, big.prepare)
		}
		few, many := datalogDerivations(t, 150, q.text), datalogDerivations(t, 1500, q.text)
		t.Logf("%-24s derived atoms %d -> %d", q.name, few, many)
		if few == 0 || many > 12*few {
			t.Errorf("%s: %d -> %d derived atoms, more than 12x for 10x items", q.name, few, many)
		}
	}
}
