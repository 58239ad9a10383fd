// Package analyzers assembles the treeqlint suite: the project-specific
// static checks that machine-enforce invariants the engine otherwise
// maintains by hand and code review.  docs/ARCHITECTURE.md ("Static
// analysis") maps each invariant to its analyzer.
package analyzers

import (
	"repro/internal/analyzers/analysis"
	"repro/internal/analyzers/ctxcheckpoint"
	"repro/internal/analyzers/errcode"
	"repro/internal/analyzers/poolpair"
)

// All returns the full treeqlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxcheckpoint.Analyzer,
		errcode.Analyzer,
		poolpair.Analyzer,
	}
}
