// Package ctxcheckpoint checks that the solver entry points honor
// cancellation.
//
// PR 6 threaded ctx.Err() checkpoints through the Horn-SAT, backtracking,
// and arc-consistency solvers so a cancelled request stops burning CPU
// within one checkpoint interval; the /v1 deadline machinery depends on it.
// The discipline is easy to erode: a new exported *Ctx entry point that
// accepts a context and then quietly ignores it runs to completion after
// cancellation.
//
// The solvers share a deliberate shape: bounded linear setup loops first
// (building occurrence indexes, candidate domains, encodings), then the
// dominant — often superlinear — work, which is where the cancellation
// checkpoints live: a modulo-interval ctx.Err() in the main loop
// (hornsat.SolveCtx), a checkpoint inside the backtracking recursion closure
// (cq.EvalCtx, arccons.EnumerateCtx), or delegation by passing ctx to the
// callee that does the solving (arccons.SatisfiableXIndexedCtx handing it to
// the arc-consistency fixpoint, which polls it after every revision;
// mdatalog's compiled SolveCtx handing it to each component's step, sweep or
// queue, which poll it every mdatalog.CheckpointInterval nodes or atoms).
// Requiring a checkpoint in every loop would outlaw the setup loops, so the
// analyzer checks the shape itself:
//
// In the solver packages (hornsat, cq, arccons, rewrite, mdatalog), every
// exported function whose name ends in "Ctx" and takes a context.Context
// must, if it loops at all, contain a cancellation touchpoint — ctx.Err(),
// ctx.Done(), or a call forwarding a context variable — at or after its first
// loop.  An entry-only ctx.Err() guard does not count: it proves the solver
// looked at ctx once, not that cancellation can interrupt the work.  Nor does
// a call handed a fresh context (context.Background(), context.TODO(), any
// call that returns a context): the callee polls a context no request can
// cancel.
package ctxcheckpoint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the ctxcheckpoint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheckpoint",
	Doc: "check that loops in exported *Ctx solvers carry ctx.Err() checkpoints\n\n" +
		"An exported *Ctx function in the solver packages that loops must have a\n" +
		"ctx.Err()/ctx.Done() checkpoint or forward a context variable to a callee\n" +
		"at or after the first loop; a guard before the work, or a callee handed\n" +
		"context.Background(), does not count.",
	Run: run,
}

// solverPkgs are the packages whose exported *Ctx functions promise
// checkpoint-grade cancellation (the PR 6 contract).
var solverPkgs = map[string]bool{
	"repro/internal/hornsat":  true,
	"repro/internal/cq":       true,
	"repro/internal/arccons":  true,
	"repro/internal/rewrite":  true,
	"repro/internal/mdatalog": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !solverPkgs[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !fn.Name.IsExported() || !strings.HasSuffix(fn.Name.Name, "Ctx") {
				continue
			}
			if !hasContextParam(pass, fn) {
				continue
			}
			checkSolver(pass, fn)
		}
	}
	return nil, nil
}

// hasContextParam reports whether fn has a parameter of type context.Context.
func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(pass.TypesInfo.Types[field.Type].Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkSolver enforces the shape: if the body loops (closures included),
// some cancellation touchpoint must sit at or after the first loop.
func checkSolver(pass *analysis.Pass, fn *ast.FuncDecl) {
	firstLoop := token.NoPos
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if firstLoop.IsValid() {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			firstLoop = n.Pos()
			return false
		}
		return true
	})
	if !firstLoop.IsValid() {
		return // no loops: a single pass is interrupted by its own return
	}

	// A checkpoint counts when it sits at or after the first loop — or
	// anywhere inside a function literal, which runs at call time regardless
	// of where it is declared (the backtracking recursions).  Only a bare
	// entry guard before the work is excluded.
	covered := false
	var inLit []bool // stack entry per visited node: is it a FuncLit?
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			inLit = inLit[:len(inLit)-1]
			return false
		}
		if covered {
			// Keep the stack balanced but stop matching.
			inLit = append(inLit, false)
			return true
		}
		_, isLit := n.(*ast.FuncLit)
		inLit = append(inLit, isLit)
		if call, ok := n.(*ast.CallExpr); ok {
			litDepth := 0
			for _, l := range inLit {
				if l {
					litDepth++
				}
			}
			if litDepth > 0 || call.Pos() >= firstLoop {
				if isCheckpointCall(pass, call) {
					covered = true
				}
			}
		}
		return true
	})
	if !covered {
		pass.ReportCategoryf(firstLoop, "missingcheckpoint",
			"exported *Ctx solver %s loops but has no ctx.Err() checkpoint or context-forwarding call at or after its first loop; cancellation cannot interrupt the work", fn.Name.Name)
	}
}

// isCheckpointCall reports a cancellation touchpoint: ctx.Err(), ctx.Done(),
// or a call forwarding a context variable to a callee.  A context argument
// that is itself a call, such as context.Background(), forwards nothing.
func isCheckpointCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextType(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
	}
	for _, arg := range call.Args {
		if isContextVar(pass, arg) {
			return true
		}
	}
	return false
}

// isContextVar reports whether e names a variable (or a field) of type
// context.Context.
func isContextVar(pass *analysis.Pass, e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	return ok && isContextType(v.Type())
}
