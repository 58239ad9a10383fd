package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// cancelTests names, for every exported *Ctx entry point of the solver
// packages that takes a context.Context, the test of its package that
// cancels it.  A new entry point fails TestCtxEntryPointsHaveCancelTests
// until it has a row here and its test exists.
var cancelTests = map[string]string{
	"arccons.(*Compiled).EnumerateCtx":   "TestKernelCheckpointCadence",
	"arccons.EnumerateAcyclicIndexedCtx": "TestEnumerateCtxCancelsMidEnumeration",
	"arccons.SatisfiableXIndexedCtx":     "TestFixpointCheckpointCadence",
	"cq.EvaluateNaiveCtx":                "TestEvaluateNaiveCtxCancelsMidSearch",
	"hornsat.(*Program).SolveCtx":        "TestSolveCtxCancelsWithinOneInterval",
	"mdatalog.(*Compiled).SolveCtx":      "TestCompiledCheckpointCadence",
	"rewrite.Union.EvaluateCtx":          "TestUnionEvaluateCtxCancels",
}

// TestCtxEntryPointsHaveCancelTests lists the exported *Ctx functions and
// methods that take a context.Context in hornsat, cq, arccons, rewrite and
// mdatalog, and requires the list to equal cancelTests, and each row's test
// to be a test of the entry point's package that names it.
func TestCtxEntryPointsHaveCancelTests(t *testing.T) {
	seen := map[string]bool{}
	for _, pkg := range []string{"arccons", "cq", "hornsat", "mdatalog", "rewrite"} {
		files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		tests := map[string]*ast.FuncDecl{}
		var entries []*ast.FuncDecl
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch fn, _ := d.(*ast.FuncDecl); {
				case fn == nil:
				case strings.HasSuffix(name, "_test.go"):
					tests[fn.Name.Name] = fn
				case fn.Name.IsExported() && strings.HasSuffix(fn.Name.Name, "Ctx") && slices.ContainsFunc(fn.Type.Params.List, isContext):
					entries = append(entries, fn)
				}
			}
		}
		for _, fn := range entries {
			key := pkg + "."
			if fn.Recv != nil {
				recv := types.ExprString(fn.Recv.List[0].Type)
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				key += recv + "."
			}
			key += fn.Name.Name
			seen[key] = true
			if test, ok := cancelTests[key]; !ok {
				t.Errorf("%s takes a context but has no row in cancelTests", key)
			} else if tests[test] == nil || !mentions(tests[test], fn.Name.Name) {
				t.Errorf("%s: %s is not a test of internal/%s that names it", key, test, pkg)
			}
		}
	}
	for key := range cancelTests {
		if !seen[key] {
			t.Errorf("cancelTests row %s names no exported *Ctx entry point", key)
		}
	}
}

func isContext(p *ast.Field) bool { return types.ExprString(p.Type) == "context.Context" }

// mentions reports whether fn's body names name.
func mentions(fn *ast.FuncDecl, name string) (found bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		found = found || ok && id.Name == name
		return !found
	})
	return found
}
