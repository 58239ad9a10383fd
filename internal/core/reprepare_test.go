package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/treediff"
	"repro/internal/workload"
)

// reprepareDocs builds two revisions of a small document: v1 has 2 keywords,
// v2 has 4 and an extra item.
const (
	reprepareV1 = `<site><item><name>a</name><description><keyword>k</keyword><keyword>k</keyword></description></item></site>`
	reprepareV2 = `<site><item><name>a</name><description><keyword>k</keyword><keyword>k</keyword><keyword>k</keyword></description></item><item><name>b</name><description><keyword>k</keyword></description></item></site>`
)

// TestReprepareEveryRoute checks the Reprepare contract for each language:
// the returned query is bound to the new engine (answers reflect the new
// document), and the original keeps answering over the old one.
func TestReprepareEveryRoute(t *testing.T) {
	oldEng, err := FromXML(reprepareV1)
	if err != nil {
		t.Fatal(err)
	}
	newEng, err := FromXML(reprepareV2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cases := []struct {
		lang, text         string
		oldCount, newCount int
	}{
		{LangXPath, "//item//keyword", 2, 4},
		{LangCQ, "Q(x) :- Lab[keyword](x).", 2, 4},
		{LangTwig, "//item[name]", 1, 2},
		{LangDatalog, "P(x) :- Lab[keyword](x).\n?- P.", 2, 4},
		{LangStream, "//item//keyword", 2, 4},
	}
	count := func(r *Result) int { return len(r.Nodes) + len(r.Answers) }
	for _, tc := range cases {
		pq, err := oldEng.Prepare(tc.lang, tc.text)
		if err != nil {
			t.Fatalf("%s: prepare: %v", tc.lang, err)
		}
		npq, err := pq.Reprepare(newEng)
		if err != nil {
			t.Fatalf("%s: reprepare: %v", tc.lang, err)
		}
		res, _, err := npq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s: exec re-prepared: %v", tc.lang, err)
		}
		if got := count(res); got != tc.newCount {
			t.Errorf("%s: re-prepared count = %d, want %d (new document)", tc.lang, got, tc.newCount)
		}
		if npq.Language() != tc.lang || npq.Text() != tc.text {
			t.Errorf("%s: re-prepared identity = (%s, %q)", tc.lang, npq.Language(), npq.Text())
		}
		// The original stays bound to the old engine.
		res, _, err = pq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s: exec original: %v", tc.lang, err)
		}
		if got := count(res); got != tc.oldCount {
			t.Errorf("%s: original count = %d after reprepare, want %d (old document)", tc.lang, got, tc.oldCount)
		}
		// Execution statistics start fresh.
		if st := npq.Stats(); st.Execs != 1 {
			t.Errorf("%s: re-prepared Execs = %d, want 1", tc.lang, st.Execs)
		}
	}
}

// TestReprepareRebindsClauses: the artifact size a re-prepared plan reports is
// measured on the plan the new engine built, not copied from the old one —
// the rewritten union's disjunct count where the new engine runs the
// rewriting, 0 where its forced strategy does not.
func TestReprepareRebindsClauses(t *testing.T) {
	oldEng, _ := FromXML(reprepareV1)
	newEng, _ := FromXML(reprepareV2)
	naiveEng, _ := FromXML(reprepareV2, WithStrategy(Naive))
	pq, err := oldEng.Prepare(LangCQ, "Q(k, l) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, l), Lab[keyword](l), Following(k, l).")
	if err != nil {
		t.Fatal(err)
	}
	npq, err := pq.Reprepare(newEng)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Clauses() != 4 || npq.Clauses() != 4 {
		t.Errorf("clauses old=%d new=%d, want the union's 4 disjuncts on both", pq.Clauses(), npq.Clauses())
	}
	naive, err := pq.Reprepare(naiveEng)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Clauses() != 0 {
		t.Errorf("clauses under the naive strategy = %d, want 0 (no union held)", naive.Clauses())
	}
	// One pair of keywords under one item in v1; three pairs in v2's first
	// item and none in its second.
	for _, tc := range []struct {
		pq   *PreparedQuery
		want int
	}{{pq, 1}, {npq, 3}, {naive, 3}} {
		res, _, err := tc.pq.Exec(context.Background())
		if err != nil || len(res.Answers) != tc.want {
			t.Errorf("%d answers, %v; want %d", len(res.Answers), err, tc.want)
		}
	}
}

// TestDatalogReprepareSharesCompiled: re-preparing a datalog plan shares the
// compiled program, so it allocates a closure, a plan and its notes — the
// same small number of objects whatever the document size.  (Re-grounding
// allocated per rule and copied per node; recompiling per write would cost
// update_churn its allocs_per_req bound.)
func TestDatalogReprepareSharesCompiled(t *testing.T) {
	const prog = "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."
	var allocs [2]float64
	for i, items := range []int{150, 1500} {
		eng := New(workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 1}))
		pq, err := eng.Prepare(LangDatalog, prog)
		if err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := pq.Reprepare(eng); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("Reprepare allocations: %.0f at 150 items, %.0f at 1,500", allocs[0], allocs[1])
	// 13 and 13 without the race detector, whose bookkeeping adds a few.
	if math.Abs(allocs[0]-allocs[1]) > 4 || allocs[0] > 20 {
		t.Errorf("Reprepare allocates %.0f / %.0f objects at 150 / 1,500 items, want the same small constant", allocs[0], allocs[1])
	}
}

// TestReprepareHonorsTargetStrategy: the re-prepared query plans under the
// new engine's strategy, not the source engine's.
func TestReprepareHonorsTargetStrategy(t *testing.T) {
	autoEng, _ := FromXML(reprepareV1)
	naiveEng, err := FromXML(reprepareV2, WithStrategy(Naive))
	if err != nil {
		t.Fatal(err)
	}
	pq, err := autoEng.Prepare(LangXPath, "//keyword")
	if err != nil {
		t.Fatal(err)
	}
	npq, err := pq.Reprepare(naiveEng)
	if err != nil {
		t.Fatal(err)
	}
	if got := npq.Plan().Technique; got != "naive top-down semantics" {
		t.Errorf("re-prepared technique = %q, want the target engine's naive route", got)
	}
	res, _, err := npq.Exec(context.Background())
	if err != nil || len(res.Nodes) != 4 {
		t.Fatalf("naive re-prepared exec: %d nodes, %v; want 4", len(res.Nodes), err)
	}
}

// TestRelationalRoutesAcrossPatchAndRelease: the kernel's rank view is
// per-index state, so after a shifting patch (node ranks past the splice
// move) and after a Release the three relational routes must answer exactly
// like an engine built from scratch over the new document — with the plans
// carried over by Reprepare, compiled forms included.
func TestRelationalRoutesAcrossPatchAndRelease(t *testing.T) {
	oldT := tree.MustParseSexpr("site(item(name mailbox keyword) item(name keyword(text) text) item(name keyword text))")
	newT := tree.MustParseSexpr("site(item(name mailbox extra(keyword) keyword) item(name keyword(text) text) item(name keyword text))")
	sc, ok := treediff.Diff(oldT, newT)
	if !ok || sc.NewLen == sc.OldLen {
		t.Fatalf("expected a shifting single-splice diff, got %+v ok=%v", sc, ok)
	}
	ctx := context.Background()
	queries := []struct{ lang, text string }{
		{LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."},
		{LangCQ, "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t)."},
		{LangTwig, "//item[name]//keyword"},
	}
	oldEng := New(oldT)
	var plans []*PreparedQuery
	for _, q := range queries {
		pq, err := oldEng.Prepare(q.lang, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pq.Exec(ctx); err != nil { // builds the old view
			t.Fatal(err)
		}
		plans = append(plans, pq)
	}
	patched := oldEng.Patched(newT, index.PatchSpec{
		Start: sc.Start, OldLen: sc.OldLen, NewLen: sc.NewLen,
		Touched: sc.Touched, ShapePreserving: sc.ShapePreserving,
	})
	oldEng.Release()
	fresh := New(newT)
	for i, q := range queries {
		want, _, err := fresh.mustPrepare(t, q.lang, q.text).Exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		npq, err := plans[i].Reprepare(patched)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"patched", "released"} {
			got, _, err := npq.Exec(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Answers) == 0 || !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("%s %q on the %s engine: %v, rebuilt engine: %v", q.lang, q.text, stage, got.Answers, want.Answers)
			}
			patched.Release()
		}
	}
	if err := patched.Index().Validate(); err != nil {
		t.Fatal(err)
	}
}

func (e *Engine) mustPrepare(t *testing.T, lang, text string) *PreparedQuery {
	t.Helper()
	pq, err := e.Prepare(lang, text)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}
