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

// TestReprepareEveryRoute: one Compiled per route, executed on the engines of
// two different documents, answers on each exactly like Prepare + Exec on
// that engine — the compiled form carries nothing of either document.
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
		{LangSimilar, "k=0 maxdist=0 keyword", 2, 4},
	}
	count := func(r *Result) int { return len(r.Nodes) + len(r.Answers) + len(r.Hits) }
	for _, tc := range cases {
		c, err := Compile(tc.lang, tc.text)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.lang, err)
		}
		if c.Language() != tc.lang || c.Text() != tc.text {
			t.Errorf("%s: compiled identity = (%s, %q)", tc.lang, c.Language(), c.Text())
		}
		for _, run := range []struct {
			eng  *Engine
			want int
		}{{oldEng, tc.oldCount}, {newEng, tc.newCount}, {oldEng, tc.oldCount}} {
			got, _, err := c.Exec(ctx, run.eng)
			if err != nil {
				t.Fatalf("%s: exec: %v", tc.lang, err)
			}
			want, _, err := run.eng.mustPrepare(t, tc.lang, tc.text).Exec(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if count(got) != run.want || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: shared Compiled %+v, Prepare+Exec %+v, want %d answers", tc.lang, tc.text, got, want, run.want)
			}
		}
		if st := c.Stats(); st.Execs != 3 {
			t.Errorf("%s: Execs = %d, want 3 across both engines", tc.lang, st.Execs)
		}
	}
}

// TestReprepareRebindsClauses: the artifact size a compiled plan reports is
// fixed by the strategy it was compiled under, not by the engine it runs on —
// the rewritten union's disjunct count under Auto, 0 under Naive, which holds
// no union — and both answer alike on any engine.
func TestReprepareRebindsClauses(t *testing.T) {
	oldEng, _ := FromXML(reprepareV1)
	newEng, _ := FromXML(reprepareV2)
	const q = "Q(k, l) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, l), Lab[keyword](l), Following(k, l)."
	auto, err := Compile(LangCQ, q)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Compile(LangCQ, q, WithStrategy(Naive))
	if err != nil {
		t.Fatal(err)
	}
	if auto.Clauses() != 4 || naive.Clauses() != 0 {
		t.Errorf("clauses auto=%d naive=%d, want the union's 4 disjuncts and 0", auto.Clauses(), naive.Clauses())
	}
	// One pair of keywords under one item in v1; three pairs in v2's first
	// item and none in its second.
	for _, c := range []*Compiled{auto, naive} {
		for _, tc := range []struct {
			eng  *Engine
			want int
		}{{oldEng, 1}, {newEng, 3}} {
			res, _, err := c.Exec(context.Background(), tc.eng)
			if err != nil || len(res.Answers) != tc.want {
				t.Errorf("%s: %d answers, %v; want %d", c.Plan().Technique, len(res.Answers), err, tc.want)
			}
		}
	}
}

// TestDatalogReprepareSharesCompiled: one compiled datalog program serves
// documents of any size — executing it on an engine allocates the same small
// number of objects at 150 and at 1,500 items as a fresh Prepare on that
// engine does, and nothing is compiled again.
func TestDatalogReprepareSharesCompiled(t *testing.T) {
	const prog = "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."
	c, err := Compile(LangDatalog, prog)
	if err != nil {
		t.Fatal(err)
	}
	phases := c.Phases()
	ctx := context.Background()
	var allocs [2]float64
	for i, items := range []int{150, 1500} {
		eng := New(workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 1}))
		want, _, err := eng.mustPrepare(t, LangDatalog, prog).Exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Exec(ctx, eng)
		if err != nil || !reflect.DeepEqual(got.Nodes, want.Nodes) {
			t.Fatalf("%d items: shared program answered %d nodes (%v), fresh prepare %d", items, len(got.Nodes), err, len(want.Nodes))
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, _, err := c.Exec(ctx, eng); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("Exec allocations of one compiled program: %.0f at 150 items, %.0f at 1,500", allocs[0], allocs[1])
	// Equal (5 and 5) without the race detector, whose bookkeeping and pool
	// sampling move the counts by a few objects; ten times the nodes would
	// move them by thousands.
	if math.Abs(allocs[0]-allocs[1]) > 16 {
		t.Errorf("Exec allocates %.0f / %.0f objects at 150 / 1,500 items, want the same small constant", allocs[0], allocs[1])
	}
	if !reflect.DeepEqual(c.Phases(), phases) {
		t.Errorf("executing on new engines changed the compile phases: %v -> %v", phases, c.Phases())
	}
}

// TestReprepareHonorsTargetStrategy: preparing the query again on a target
// engine plans under that engine's strategy, while a Compiled keeps the
// strategy it was compiled under on any engine — an Auto engine runs a
// Naive-compiled plan naively and a Naive engine runs an Auto-compiled plan
// on the set-at-a-time route, with the same answers either way.
func TestReprepareHonorsTargetStrategy(t *testing.T) {
	autoEng, _ := FromXML(reprepareV2)
	naiveEng, err := FromXML(reprepareV2, WithStrategy(Naive))
	if err != nil {
		t.Fatal(err)
	}
	if got := naiveEng.mustPrepare(t, LangXPath, "//keyword").Plan().Technique; got != "naive top-down semantics" {
		t.Errorf("Prepare on a Naive engine chose %q, want the target engine's naive route", got)
	}
	naive, err := Compile(LangXPath, "//keyword", WithStrategy(Naive))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Compile(LangXPath, "//keyword")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		c         *Compiled
		eng       *Engine
		technique string
	}{
		{naive, autoEng, "naive top-down semantics"},
		{auto, naiveEng, "set-at-a-time evaluation (O(|D|*|Q|))"},
	} {
		res, plan, err := tc.c.Exec(context.Background(), tc.eng)
		if err != nil || len(res.Nodes) != 4 {
			t.Fatalf("exec: %d nodes, %v; want 4", len(res.Nodes), err)
		}
		if plan.Technique != tc.technique {
			t.Errorf("technique = %q, want %q", plan.Technique, tc.technique)
		}
	}
}

// TestRelationalRoutesAcrossPatchAndRelease: the kernel's rank view is
// per-index state, so after a shifting patch (node ranks past the splice
// move) and after a Release the three relational routes must answer exactly
// like an engine built from scratch over the new document — with the same
// Compiled plans that ran on the old engine.
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
	var plans []*Compiled
	for _, q := range queries {
		c, err := Compile(q.lang, q.text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Exec(ctx, oldEng); err != nil { // builds the old view
			t.Fatal(err)
		}
		plans = append(plans, c)
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
		for _, stage := range []string{"patched", "released", "rebuilt"} {
			eng := patched
			if stage == "rebuilt" {
				eng = New(newT)
			}
			got, _, err := plans[i].Exec(ctx, eng)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Answers) == 0 || !reflect.DeepEqual(got.Answers, want.Answers) {
				t.Errorf("%s %q on the %s engine: %v, fresh engine: %v", q.lang, q.text, stage, got.Answers, want.Answers)
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
