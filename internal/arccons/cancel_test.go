package arccons

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/workload"
)

// The Ctx variants must honor an already-expired context before (or very
// shortly after) starting work, and the expiry must surface as the context's
// own error, not as "unsatisfiable".
func TestCtxVariantsHonorCancellation(t *testing.T) {
	tr := workload.RandomTree(workload.TreeSpec{Nodes: 500, Seed: 3, Alphabet: []string{"a", "b", "c"}})
	q := cq.MustParse("Q(x, y) :- Lab[a](x), Child+(x, y), Lab[b](y).")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := EnumerateAcyclicIndexedCtx(ctx, q, tr, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("EnumerateAcyclicIndexedCtx err = %v, want context.Canceled", err)
	}
	if _, err := SatisfiableXIndexedCtx(ctx, cq.MustParse("Q :- Lab[a](x), Child+(x, y), Lab[b](y)."), tr, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("SatisfiableXIndexedCtx err = %v, want context.Canceled", err)
	}
}

// TestFixpointCheckpointCadence proves that the arc-consistency fixpoint
// behind SatisfiableXIndexedCtx polls ctx once per revision (one axis image),
// and that a cancelled run stops at the first poll that fails, without
// asking ctx again.
func TestFixpointCheckpointCadence(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 50, Regions: 6, DescriptionDepth: 2, Seed: 1})
	ix := index.New(doc)
	for _, tri := range triangles {
		q := cq.MustParse(tri.text)
		_, _, revisions := fixpoint(t, q, doc, ix)
		if revisions < 2*len(q.Axes) {
			t.Fatalf("%s: %d revisions, want at least two per atom", tri.name, revisions)
		}
		ctx := &countingCtx{Context: context.Background()}
		if sat, err := SatisfiableXIndexedCtx(ctx, q, doc, ix); err != nil || !sat {
			t.Fatalf("%s: SatisfiableXIndexedCtx = %v, %v; want true", tri.name, sat, err)
		}
		if ctx.calls < revisions {
			t.Errorf("%s: ctx.Err called %d times over %d revisions, want at least one per revision", tri.name, ctx.calls, revisions)
		}
		ctx = &countingCtx{Context: context.Background(), failAfter: 2}
		if _, err := SatisfiableXIndexedCtx(ctx, q, doc, ix); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", tri.name, err)
		}
		if ctx.calls != 2 {
			t.Errorf("%s: ctx.Err called %d times, want 2: the abort must land on the second revision", tri.name, ctx.calls)
		}
	}
}

// A context that expires mid-enumeration aborts the recursion (within one
// checkpoint interval of candidate visits) instead of completing the
// output-heavy walk.
func TestEnumerateCtxCancelsMidEnumeration(t *testing.T) {
	// A 2-variable descendant query over a single-label tree produces a
	// large answer set, so enumeration visits far more than one checkpoint
	// interval of candidates.
	tr := workload.RandomTree(workload.TreeSpec{Nodes: 1200, Seed: 5, Alphabet: []string{"a"}})
	q := cq.MustParse("Q(x, y) :- Lab[a](x), Child+(x, y), Lab[a](y).")

	// Sanity: uncancelled enumeration succeeds and is big.
	full, err := EnumerateAcyclicIndexedCtx(context.Background(), q, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 4*enumCheckpointInterval {
		t.Fatalf("want an answer set spanning several checkpoint intervals, got %d", len(full))
	}

	ctx := &countingCtx{Context: context.Background(), failAfter: 3}
	if _, err := EnumerateAcyclicIndexedCtx(ctx, q, tr, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The solve phase checks ctx a bounded number of times before the
	// enumeration starts; once expired, the recursion may observe at most
	// one more checkpoint before unwinding.
	if ctx.calls > ctx.failAfter+1 {
		t.Errorf("ctx.Err observed %d times after expiring at call %d: enumeration kept running", ctx.calls, ctx.failAfter)
	}
}

// countingCtx counts its Err calls, each one checkpoint, and reports
// cancellation from the failAfter-th call onward (never when failAfter is 0).
type countingCtx struct {
	context.Context
	calls     int
	failAfter int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.failAfter > 0 && c.calls >= c.failAfter {
		return context.Canceled
	}
	return nil
}
