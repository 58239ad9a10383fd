// Package poolpair checks that every buffer taken from one of the engine's
// allocation pools is returned on every path.
//
// The engine recycles its hot-path scratch through two pools —
// bitset.Acquire/Release and ted's acquire/release DP scratch — and the pairing discipline lives only in
// comments ("the caller owns the vector until Release").  A missed release
// on an error branch silently degrades the pool hit rate (the pairs-pointer
// race in PR 4 was first noticed that way); a double release poisons the pool
// with an aliased buffer.  A missed release also costs an allocation on the
// next acquire, which on the XPath and stream routes — whose warm
// executions otherwise allocate only their exec block and their answer —
// fails the exact allocation pins.  This analyzer machine-checks the
// discipline for the common ownership shape: a pooled value acquired into a
// local variable and consumed in the same function.
//
// Ownership transfer is out of scope by design: a value that escapes — is
// returned, stored into a struct, slice, map, or channel, captured by a
// non-defer closure, or passed to any call other than the paired release —
// is assumed handed to its consumer, matching constructor-style helpers like
// the XPath evaluator's qualSatSet that document "owned by the caller".  (A
// filler such as tree.Tree.Image, which takes its output vector from the
// caller, hands nothing over — but a pass to any call reads the same to this
// analyzer, so the caller's release goes unchecked.)  The flow analysis is
// structural (if/else, switch, loops, returns) rather than CFG-complete;
// labels, gotos, and branch statements make the analyzer give the variable
// the benefit of the doubt.
package poolpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the poolpair analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc: "check that pooled buffers (bitset, ted) are released on all paths\n\n" +
		"Flags acquires whose buffer neither escapes nor is released on every exit path,\n" +
		"and releases that run twice (directly or via a deferred release).",
	Run: run,
}

// pair is one acquire/release pairing, identified by declaring package path
// and function name (so unexported pool functions are checked within their
// own package).
type pair struct {
	pkg              string
	acquire, release string
	what             string // human name for diagnostics
}

var pairs = []pair{
	{"repro/internal/bitset", "Acquire", "Release", "bitset.Acquire"},
	{"repro/internal/ted", "acquire", "release", "ted.acquire"},
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkBody(pass, body)
			}
			return true
		})
	}
	return nil, nil
}

// acquireOf returns the pair a call acquires from, or nil.
func acquireOf(pass *analysis.Pass, call *ast.CallExpr) *pair {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	for i := range pairs {
		if analysis.IsPkgFunc(fn, pairs[i].pkg, pairs[i].acquire) {
			return &pairs[i]
		}
	}
	return nil
}

// releaseCallOf reports whether call is p's release applied to v (v appearing
// anywhere in the arguments, so release(v[:n]) pairs too).
func releaseCallOf(pass *analysis.Pass, call *ast.CallExpr, p *pair, v types.Object) bool {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if !analysis.IsPkgFunc(fn, p.pkg, p.release) {
		return false
	}
	for _, arg := range call.Args {
		if mentionsObj(pass, arg, v) {
			return true
		}
	}
	return false
}

func mentionsObj(pass *analysis.Pass, e ast.Expr, v types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// checkBody analyzes one function body in isolation (nested function
// literals are separate bodies and are skipped here, except as escape and
// defer-release evidence for this body's variables).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Find acquire sites: `v := pkg.Acquire(...)` (or `=`) with v a plain
	// identifier, at any depth of this body outside nested function literals.
	type site struct {
		p     *pair
		v     types.Object
		id    *ast.Ident
		stmt  *ast.AssignStmt
		block *ast.BlockStmt // innermost enclosing block
	}
	var sites []site
	var walk func(n ast.Node, blocks []*ast.BlockStmt)
	walk = func(n ast.Node, blocks []*ast.BlockStmt) {
		switch n := n.(type) {
		case *ast.FuncLit:
			return // separate scope
		case *ast.BlockStmt:
			blocks = append(blocks, n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					p := acquireOf(pass, call)
					if p == nil {
						continue
					}
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj == nil || len(blocks) == 0 {
						continue
					}
					sites = append(sites, site{p: p, v: obj, id: id, stmt: n, block: blocks[len(blocks)-1]})
				}
			}
		}
		children(n, func(c ast.Node) { walk(c, blocks) })
	}
	walk(body, nil)

	for _, s := range sites {
		checkSite(pass, body, s.p, s.v, s.id, s.stmt, s.block)
	}
}

// children invokes f once per direct child node of n.
func children(n ast.Node, f func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			f(c)
		}
		return false
	})
}

// checkSite classifies every use of v in the body and, when ownership stays
// local, runs the structural must-release walk.
func checkSite(pass *analysis.Pass, body *ast.BlockStmt, p *pair, v types.Object, id *ast.Ident, acq *ast.AssignStmt, block *ast.BlockStmt) {
	u := classifyUses(pass, body, p, v, acq)
	if u.escapes {
		return // ownership transferred; the consumer releases
	}
	if u.deferRelease.IsValid() {
		// A deferred release covers every exit from its statement onward; a
		// direct release alongside it runs the buffer back into the pool
		// twice.
		for _, rel := range u.directReleases {
			pass.ReportCategoryf(rel.Pos(), "doublerelease",
				"%s result %q released here and again by the deferred release at %s",
				p.what, v.Name(), pass.Fset.Position(u.deferRelease))
		}
		return
	}
	if len(u.directReleases) == 0 {
		if !u.fuzzy {
			pass.ReportCategoryf(id.Pos(), "leak",
				"%s result %q is never released in this function and does not escape (missing defer %s)",
				p.what, v.Name(), p.release)
		}
		return
	}
	if u.fuzzy {
		return // releases under loops/gotos: give the benefit of the doubt
	}
	rest, ok := afterStmt(block.List, acq)
	if !ok {
		return // acquire in an if/for init clause: out of scope
	}
	w := &walker{pass: pass, p: p, v: v, acq: acq}
	res := w.stmts(rest, pathState{})
	if res.mayFall && !res.st.released {
		pass.ReportCategoryf(id.Pos(), "leak",
			"%s result %q is not released on the fall-through path of its enclosing block",
			p.what, v.Name())
	}
}

// uses summarizes how v is used across the body.
type uses struct {
	escapes        bool
	fuzzy          bool // release reachable via loop/goto/closure: skip flow analysis
	deferRelease   token.Pos
	directReleases []*ast.CallExpr
}

// classifyUses walks the body once recording, for each use of v, whether it
// is a release, a deferred release, a benign read, or an escape.
func classifyUses(pass *analysis.Pass, body *ast.BlockStmt, p *pair, v types.Object, acq *ast.AssignStmt) uses {
	var u uses

	// context flags threaded down the walk
	type ctx struct {
		inDeferredLit bool // inside `defer func() { ... }()` literal of THIS body
		inOtherLit    bool // inside any other function literal
		loopDepth     int
	}
	var walk func(n ast.Node, c ctx)
	walk = func(n ast.Node, c ctx) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if call := n.Call; call != nil {
				if releaseCallOf(pass, call, p, v) {
					u.deferRelease = n.Pos()
					return
				}
				if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
					// defer func() { ... }(): releases inside count as
					// deferred releases for this body.
					nc := c
					nc.inDeferredLit = true
					walk(lit.Body, nc)
					for _, arg := range call.Args {
						walk(arg, c)
					}
					return
				}
			}
		case *ast.FuncLit:
			nc := c
			nc.inOtherLit = true
			walk(n.Body, nc)
			return
		case *ast.ForStmt, *ast.RangeStmt:
			nc := c
			// A loop that contains the acquire re-pairs acquire and release
			// every iteration; only a loop the acquire sits outside of can
			// run a release zero or many times.
			if !containsNode(n, acq) {
				nc.loopDepth++
			}
			children(n, func(ch ast.Node) { walk(ch, nc) })
			return
		case *ast.CallExpr:
			if releaseCallOf(pass, n, p, v) {
				switch {
				case c.inDeferredLit:
					u.deferRelease = n.Pos()
				case c.inOtherLit:
					u.fuzzy = true // released by a closure we can't order
				case c.loopDepth > 0:
					u.fuzzy = true // release under a loop: 0..n executions
				default:
					u.directReleases = append(u.directReleases, n)
				}
				// Arguments beyond v-mentions don't need a separate walk.
				return
			}
			// v passed to any other call (or any argument of a non-release
			// call mentioning v) transfers ownership.  Builtin len/cap/print
			// reads are benign.
			if !isBenignBuiltin(pass, n) {
				for _, arg := range n.Args {
					if isDirectUse(pass, arg, v) {
						u.escapes = true
					}
				}
			}
			children(n, func(ch ast.Node) { walk(ch, c) })
			return
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentionsObj(pass, r, v) {
					u.escapes = true
				}
			}
		case *ast.AssignStmt:
			if n == acq {
				break
			}
			// v on the RHS of any assignment aliases or stores it; v
			// reassigned on the LHS loses the tracked buffer.  Both end
			// tracking conservatively.
			for _, rhs := range n.Rhs {
				if isDirectUse(pass, rhs, v) {
					u.escapes = true
				}
			}
			for _, lhs := range n.Lhs {
				if idx, ok := ast.Unparen(lhs).(*ast.Ident); ok && (pass.TypesInfo.Uses[idx] == v || pass.TypesInfo.Defs[idx] == v) {
					u.escapes = true // reassignment: treat as new ownership
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if mentionsObj(pass, el, v) {
					u.escapes = true
				}
			}
		case *ast.SendStmt:
			if mentionsObj(pass, n.Value, v) {
				u.escapes = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && isDirectUse(pass, n.X, v) {
				u.escapes = true
			}
		case *ast.BranchStmt:
			// break/continue/goto complicate the structural walk only if a
			// release hasn't dominated yet; the flow walker treats them as
			// fuzzy itself, nothing to record here.
		}
		children(n, func(ch ast.Node) { walk(ch, c) })
	}
	walk(body, ctx{})
	return u
}

// containsNode reports whether sub occurs in the subtree rooted at n.
func containsNode(n, sub ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if c == sub {
			found = true
		}
		return !found
	})
	return found
}

// isDirectUse reports whether e is (modulo parens and slicing) the variable v
// itself — the forms whose appearance in a store/argument position transfers
// the buffer: v, (v), v[:n].  Reads like v[i], v.Method(), len(v) are not
// direct uses.
func isDirectUse(pass *analysis.Pass, e ast.Expr, v types.Object) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == v
		default:
			return false
		}
	}
}

// --- structural must-release walk -------------------------------------------

type pathState struct {
	released bool
}

type pathResult struct {
	mayFall bool // control may reach the point after the statements
	st      pathState
	fuzzy   bool
}

type walker struct {
	pass *analysis.Pass
	p    *pair
	v    types.Object
	acq  *ast.AssignStmt
}

// afterStmt returns the statements of list strictly after target, and
// whether target was a direct element of list at all (an acquire in an
// if-init or for-init statement is not).
func afterStmt(list []ast.Stmt, target ast.Stmt) ([]ast.Stmt, bool) {
	for i, s := range list {
		if s == target {
			return list[i+1:], true
		}
	}
	return nil, false
}

// isBenignBuiltin reports calls that read their arguments without retaining
// them: len, cap, println, print.
func isBenignBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	switch id.Name {
	case "len", "cap", "println", "print":
		return true
	}
	return false
}

// stmts runs the walk over a statement sequence.
func (w *walker) stmts(list []ast.Stmt, st pathState) pathResult {
	for _, s := range list {
		r := w.stmt(s, st)
		if r.fuzzy {
			return pathResult{mayFall: true, st: pathState{released: true}, fuzzy: true}
		}
		if !r.mayFall {
			return r
		}
		st = r.st
	}
	return pathResult{mayFall: true, st: st}
}

func (w *walker) stmt(s ast.Stmt, st pathState) pathResult {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if releaseCallOf(w.pass, call, w.p, w.v) {
				if st.released {
					w.pass.ReportCategoryf(call.Pos(), "doublerelease",
						"%s result %q released a second time on this path", w.p.what, w.v.Name())
				}
				st.released = true
				return pathResult{mayFall: true, st: st}
			}
			if isTerminalCall(w.pass, call) {
				return pathResult{mayFall: false, st: st} // panic/os.Exit: not a leak path
			}
		}
	case *ast.ReturnStmt:
		if !st.released {
			w.pass.ReportCategoryf(s.Pos(), "leak",
				"return without releasing %q (%s result acquired at %s)",
				w.v.Name(), w.p.what, w.pass.Fset.Position(w.acq.Pos()))
		}
		return pathResult{mayFall: false, st: st}
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.IfStmt:
		thenR := w.stmts(s.Body.List, st)
		elseR := pathResult{mayFall: true, st: st}
		if s.Else != nil {
			elseR = w.stmt(s.Else, st)
		}
		if thenR.fuzzy || elseR.fuzzy {
			return pathResult{fuzzy: true}
		}
		out := pathResult{}
		out.mayFall = thenR.mayFall || elseR.mayFall
		out.st.released = true
		if thenR.mayFall && !thenR.st.released {
			out.st.released = false
		}
		if elseR.mayFall && !elseR.st.released {
			out.st.released = false
		}
		return out
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var bodies []*ast.BlockStmt
		var hasDefault bool
		var collect func(body *ast.BlockStmt)
		collect = func(body *ast.BlockStmt) {
			for _, cs := range body.List {
				switch cs := cs.(type) {
				case *ast.CaseClause:
					if cs.List == nil {
						hasDefault = true
					}
					bodies = append(bodies, &ast.BlockStmt{List: cs.Body})
				case *ast.CommClause:
					if cs.Comm == nil {
						hasDefault = true
					}
					bodies = append(bodies, &ast.BlockStmt{List: cs.Body})
				}
			}
		}
		switch s := s.(type) {
		case *ast.SwitchStmt:
			collect(s.Body)
		case *ast.TypeSwitchStmt:
			collect(s.Body)
		case *ast.SelectStmt:
			hasDefault = true // a select blocks; treat conservatively
			collect(s.Body)
		}
		out := pathResult{st: pathState{released: true}}
		for _, b := range bodies {
			r := w.stmts(b.List, st)
			if r.fuzzy {
				return pathResult{fuzzy: true}
			}
			if r.mayFall {
				out.mayFall = true
				if !r.st.released {
					out.st.released = false
				}
			}
		}
		if !hasDefault {
			// Some switch value may match no case: prior state falls through.
			out.mayFall = true
			if !st.released {
				out.st.released = false
			}
		}
		return out
	case *ast.ForStmt:
		return w.loop(s.Body, st)
	case *ast.RangeStmt:
		return w.loop(s.Body, st)
	case *ast.DeferStmt:
		// Deferred releases were handled in classifyUses; any other defer is
		// neutral.
		return pathResult{mayFall: true, st: st}
	case *ast.LabeledStmt:
		return pathResult{fuzzy: true} // goto targets: out of scope
	case *ast.BranchStmt:
		if !st.released {
			return pathResult{fuzzy: true} // jump with live buffer: give up
		}
		return pathResult{mayFall: false, st: st}
	case *ast.GoStmt:
		return pathResult{mayFall: true, st: st}
	}
	// Remaining statements (decls, assignments, sends, incdec, empty) cannot
	// release; uses that escape were filtered before the walk.  Returns
	// nested in their expressions don't exist in Go.
	return pathResult{mayFall: true, st: st}
}

// loop handles for/range bodies: classifyUses already routed any release
// under a loop to the fuzzy bucket, so here the body is only scanned for
// leaky returns with the pre-loop state.
func (w *walker) loop(body *ast.BlockStmt, st pathState) pathResult {
	r := w.stmts(body.List, st)
	if r.fuzzy {
		return pathResult{fuzzy: true}
	}
	// Whatever the body did, the loop may run zero times.
	return pathResult{mayFall: true, st: st}
}

// isTerminalCall reports calls that never return: panic and os.Exit (and
// log.Fatal*, which the engine does not use on pooled paths but costs nothing
// to honor).
func isTerminalCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return true
		}
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "log":
		return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
	}
	return false
}
