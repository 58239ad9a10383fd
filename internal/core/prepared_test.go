package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/tree"
	"repro/internal/workload"
)

// preparedDoc is a mid-size generated document shared by the prepared tests.
func preparedDoc() *Engine {
	return New(workload.SiteDocument(workload.DocSpec{Items: 30, Regions: 3, DescriptionDepth: 2, Seed: 11}))
}

func TestPreparedMatchesLegacyWrappers(t *testing.T) {
	e := preparedDoc()
	ctx := context.Background()

	xq := "//item[name]/description//keyword"
	wantNodes, _, err := e.XPath(xq)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(LangXPath, xq)
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := pq.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Nodes) != fmt.Sprint([]tree.NodeID(wantNodes)) {
		t.Errorf("prepared xpath %v, legacy %v", res.Nodes, wantNodes)
	}
	if plan.PrepareDuration <= 0 || plan.ExecDuration <= 0 {
		t.Errorf("plan should carry timings, got prepare=%v exec=%v", plan.PrepareDuration, plan.ExecDuration)
	}

	cqText := "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."
	wantAns, _, err := e.CQ(cqText)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := e.Prepare(LangCQ, cqText)
	if err != nil {
		t.Fatal(err)
	}
	cres, _, err := pc.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.AnswersEqual(wantAns, cres.Answers) {
		t.Errorf("prepared cq disagrees with legacy wrapper")
	}

	prog := `P0(x) :- Lab[keyword](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`
	wantDl, _, err := e.Datalog(prog)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := e.Prepare(LangDatalog, prog)
	if err != nil {
		t.Fatal(err)
	}
	dres, _, err := pd.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantDl, dres.Nodes) {
		t.Errorf("prepared datalog %v, legacy %v", dres.Nodes, wantDl)
	}

	twig := "//item[name]/description//keyword"
	wantTw, _, err := e.Twig(twig)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e.Prepare(LangTwig, twig)
	if err != nil {
		t.Fatal(err)
	}
	tres, _, err := pt.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.AnswersEqual(wantTw, tres.Answers) {
		t.Errorf("prepared twig disagrees with legacy wrapper")
	}

	if _, err := e.Prepare("sql", "select 1"); err == nil {
		t.Errorf("unknown language should fail")
	}
	if _, err := e.Prepare(LangXPath, "//["); err == nil {
		t.Errorf("parse error should propagate from Prepare")
	}
}

// TestPreparedConcurrentExec hammers one shared Engine with parallel Exec
// calls over several prepared queries; run under -race this catches data
// races in the shared index cache and the evaluator layers.
func TestPreparedConcurrentExec(t *testing.T) {
	e := preparedDoc()
	ctx := context.Background()

	type prepared struct {
		pq   *PreparedQuery
		want func(*Result) string
	}
	var qs []prepared
	for lang, text := range map[string]string{
		LangXPath: "//item[name]/description//keyword",
		LangCQ:    "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k).",
		LangTwig:  "//region//item[name]",
		LangDatalog: `P0(x) :- Lab[keyword](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`,
	} {
		pq, err := e.Prepare(lang, text)
		if err != nil {
			t.Fatalf("%s: %v", lang, err)
		}
		qs = append(qs, prepared{pq: pq, want: func(r *Result) string { return fmt.Sprint(r.Nodes, r.Answers) }})
	}
	// Record expected fingerprints sequentially.
	want := make([]string, len(qs))
	for i, p := range qs {
		res, _, err := p.pq.Exec(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.want(res)
	}

	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := qs[(g+it)%len(qs)]
				res, plan, err := p.pq.Exec(ctx)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := p.want(res); got != want[(g+it)%len(qs)] {
					errs <- fmt.Errorf("goroutine %d: result diverged under concurrency", g)
					return
				}
				if plan.ExecDuration < 0 {
					errs <- fmt.Errorf("goroutine %d: negative exec duration", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, p := range qs {
		if s := p.pq.Stats(); s.Execs < 2 || s.TotalExec <= 0 {
			t.Errorf("stats not accumulated: %+v", s)
		}
	}
}

// TestPlanCloneIsolatesExecNotes: executions share the compiled plan's notes
// without copying them, so a note one execution adds (here a naiveFallback)
// must land in that execution's plan only — not in the compiled base, whose
// spare capacity stays untouched, and not in any concurrent execution's plan.
func TestPlanCloneIsolatesExecNotes(t *testing.T) {
	const q = "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k)."
	c, err := Compile(LangCQ, q)
	if err != nil {
		t.Fatal(err)
	}
	// Spare capacity is where an append through a shared slice would write.
	n := len(c.base.Notes)
	c.base.Notes = append(make([]string, 0, n+4), c.base.Notes...)
	base := append([]string(nil), c.base.Notes[:n+4]...)
	run, parsed := c.run, cq.MustParse(q)
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		if reason, ok := ctx.Value(fallbackKey{}).(string); ok {
			return naiveFallback(ctx, e, parsed, p, reason, fmt.Errorf("injected"))
		}
		return run(ctx, e, p)
	}
	e := preparedDoc()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			reason := fmt.Sprintf("route-%d", i)
			if i%2 == 0 {
				ctx = context.WithValue(ctx, fallbackKey{}, reason)
			}
			_, plan, err := c.Exec(ctx, e)
			if err != nil {
				t.Error(err)
				return
			}
			want := n
			if i%2 == 0 {
				want++
				if last := plan.Notes[len(plan.Notes)-1]; !strings.HasPrefix(last, reason+" route failed") {
					t.Errorf("exec %d: last note %q, want its own fallback", i, last)
				}
			}
			if len(plan.Notes) != want {
				t.Errorf("exec %d: %d notes, want %d: %q", i, len(plan.Notes), want, plan.Notes)
			}
		}(i)
	}
	wg.Wait()
	if got := c.base.Notes[:cap(c.base.Notes)]; !reflect.DeepEqual(got, base) {
		t.Errorf("compiled notes (to capacity) = %q, want %q", got, base)
	}
	if got := c.Plan().Notes; !reflect.DeepEqual(got, base[:n]) {
		t.Errorf("Plan().Notes = %q, want %q", got, base[:n])
	}
}

type fallbackKey struct{}
