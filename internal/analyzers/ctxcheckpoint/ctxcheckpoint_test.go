package ctxcheckpoint_test

import (
	"testing"

	"repro/internal/analyzers/analysistest"
	"repro/internal/analyzers/ctxcheckpoint"
)

func TestCtxCheckpoint(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), ctxcheckpoint.Analyzer,
		"repro/internal/hornsat", "repro/internal/mdatalog", "repro/internal/rewrite")
}
