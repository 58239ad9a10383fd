package rewrite_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/race"
	"repro/internal/rewrite"
)

// TestRewriteSearchBudget checks that the order split is bounded: the
// Following triangle, 9 variables after elimination and 7,087,261 ordered
// partitions of them, compiles to its 24 disjuncts within the budget and in
// at most 256 MiB; a 9-variable query with six unconstrained variables is
// refused at the budget; and that refusal sends Auto to the naive search
// and makes RewriteFirst fail with ErrNoStrategy.
func TestRewriteSearchBudget(t *testing.T) {
	triangle := cq.MustParse("Q(a) :- Lab[keyword](a), Lab[keyword](b), Lab[name](c), Following(a, b), Following(b, c), Following(a, c).")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ds, placements, err := rewrite.ToAcyclicUnion(triangle)
	runtime.ReadMemStats(&after)
	if err != nil || len(ds) != 24 {
		t.Fatalf("triangle: %d disjuncts, error %v; want 24 and none", len(ds), err)
	}
	if placements > rewrite.SearchBudget {
		t.Errorf("triangle: %d placements searched, over the budget of %d", placements, rewrite.SearchBudget)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; !race.Enabled && bytes > 256<<20 {
		t.Errorf("triangle: %d MiB allocated, want at most 256", bytes>>20)
	}

	const wide = "Q(x) :- Child+(x, y), Child+(y, z), Child+(x, z), Lab[a](u1), Lab[a](u2), Lab[a](u3), Lab[a](u4), Lab[a](u5), Lab[a](u6)."
	if _, placements, err := rewrite.ToAcyclicUnion(cq.MustParse(wide)); err != rewrite.ErrSearchBudget || placements != rewrite.SearchBudget+1 {
		t.Fatalf("9-variable query: error %v after %d placements, want ErrSearchBudget after %d", err, placements, rewrite.SearchBudget+1)
	}
	c, err := core.Compile(core.LangCQ, wide)
	if err != nil {
		t.Fatal(err)
	}
	if plan := c.Plan(); plan.Technique != "naive backtracking search" || !strings.Contains(strings.Join(plan.Notes, "\n"), rewrite.ErrSearchBudget.Error()) {
		t.Errorf("Auto plan: technique %q, notes %q; want the naive search and the budget note", plan.Technique, plan.Notes)
	}
	if _, err := core.Compile(core.LangCQ, wide, core.WithStrategy(core.RewriteFirst)); !errors.Is(err, core.ErrNoStrategy) {
		t.Errorf("RewriteFirst: error %v, want ErrNoStrategy", err)
	}
}
