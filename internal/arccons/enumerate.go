package arccons

import (
	"context"
	"errors"

	"repro/internal/cq"
	"repro/internal/tree"
)

// ErrCyclic is returned by Compile and EnumerateAcyclic for cyclic queries.
var ErrCyclic = errors.New("arccons: query is not acyclic")

// enumCheckpointInterval is the number of candidate-node visits between
// ctx.Err() checks inside the kernel's reduction and enumeration.
const enumCheckpointInterval = 1024

// EnumerateAcyclic evaluates an acyclic conjunctive query by the "holistic"
// route of Section 6: the full reducer leaves the maximal arc-consistent
// pre-valuation, which for acyclic queries represents precisely the solutions
// (Proposition 6.9), and the answers are then enumerated without backtracking,
// output-sensitively (Proposition 6.10).  It compiles q and runs the
// interval-join kernel once (see Compile and Compiled.EnumerateCtx); callers
// that execute a query repeatedly should hold the Compiled instead.
//
// The query may be disconnected; components are enumerated independently and
// combined.  Queries with order atoms or with cyclic graphs are rejected.
func EnumerateAcyclic(q *cq.Query, t *tree.Tree) ([]cq.Answer, error) {
	return EnumerateAcyclicIndexed(q, t, nil)
}

// EnumerateAcyclicIndexed is EnumerateAcyclic with label masks and the
// preorder-rank view served by a shared index (may be nil, in which case the
// tree is indexed for this call only).
func EnumerateAcyclicIndexed(q *cq.Query, t *tree.Tree, ix LabelIndex) ([]cq.Answer, error) {
	return EnumerateAcyclicIndexedCtx(context.Background(), q, t, ix)
}

// EnumerateAcyclicIndexedCtx is EnumerateAcyclicIndexed under a context; see
// Compiled.EnumerateCtx for the checkpoint cadence.
func EnumerateAcyclicIndexedCtx(ctx context.Context, q *cq.Query, t *tree.Tree, ix LabelIndex) ([]cq.Answer, error) {
	c, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return c.EnumerateCtx(ctx, t, ix)
}
