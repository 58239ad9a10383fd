// Package baseline declares the forced strategies of the paper's baseline
// evaluators that the core planner never picks, beside the evaluators they
// run.  Package core keeps only the Auto routes and the dispatch, so a binary
// that never forces one of these strategies — the treeqd daemon — does not
// link their evaluators.  Pass one to core.WithStrategy:
//
//	eng := core.New(doc, core.WithStrategy(baseline.Yannakakis))
package baseline

import (
	"context"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/yannakakis"
)

// Yannakakis forces full-reducer evaluation (Theorem 4.1) of every
// conjunctive query; a cyclic query fails with core.ErrNoStrategy.
var Yannakakis = core.ForceCQ("yannakakis", "Yannakakis full reducer",
	func(_ context.Context, q *cq.Query, doc *tree.Tree, idx *index.Index) ([]cq.Answer, error) {
		return yannakakis.EvaluateIndexed(q, doc, idx)
	})
