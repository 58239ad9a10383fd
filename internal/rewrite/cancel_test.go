package rewrite

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/workload"
)

// countingCtx counts its Err calls, each one checkpoint, and reports
// cancellation from the failAt-th call onward (never when failAt is 0).
type countingCtx struct {
	context.Context
	calls  int
	failAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.failAt > 0 && c.calls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestUnionEvaluateCtxCancels holds Union.EvaluateCtx to its contract: the
// context reaches every disjunct's kernel run.  On a union whose disjuncts
// each visit more candidates than the kernel's checkpoint interval (1,024),
// a context cancelled up front fails the union, and so does one cancelled
// once the first disjunct has finished: the second disjunct's first poll
// stops the union.
func TestUnionEvaluateCtxCancels(t *testing.T) {
	tr := workload.RandomTree(workload.TreeSpec{Nodes: 4000, Seed: 7, Alphabet: []string{"a", "b"}})
	u, _, err := Compile(cq.MustParse("Q(z) :- Lab[a](x), Lab[a](y), Child+(x, z), Child+(y, z)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(u) < 2 {
		t.Fatalf("the query rewrites to %d disjuncts, want at least 2", len(u))
	}
	polls := make([]int, len(u))
	for i, c := range u {
		before := c.Visits()
		ctx := &countingCtx{Context: context.Background()}
		if _, err := c.EnumerateCtx(ctx, tr, nil); err != nil {
			t.Fatal(err)
		}
		if v := c.Visits() - before; v <= 1024 {
			t.Fatalf("disjunct %d visits %d candidates, want more than one checkpoint interval", i, v)
		}
		polls[i] = ctx.calls
	}
	if answers, err := u.EvaluateCtx(context.Background(), tr, nil); err != nil || len(answers) == 0 {
		t.Fatalf("uncancelled union: %d answers, err %v", len(answers), err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := u.EvaluateCtx(cancelled, tr, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err %v, want context.Canceled", err)
	}

	ctx := &countingCtx{Context: context.Background(), failAt: polls[0] + 1}
	if _, err := u.EvaluateCtx(ctx, tr, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("context cancelled after the first disjunct: err %v, want context.Canceled", err)
	}
	if ctx.calls != ctx.failAt {
		t.Errorf("ctx.Err polled %d times, want %d: the union ran on after its cancellation", ctx.calls, ctx.failAt)
	}
}
