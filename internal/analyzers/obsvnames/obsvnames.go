// Package obsvnames promotes ci/promlint.sh's runtime naming rules to
// compile time: every metric family registered on the obsv registry must
// carry a compile-time-constant name that follows the Prometheus
// conventions, and label names must be constants drawn from a small
// allowlist so an accidental high-cardinality label (request ID, document
// name) cannot reach the exposition.
//
// Checked at every obsv.Registry.RegisterFunc / NewCounterVec /
// NewHistogramVec call site:
//
//   - the name is a constant string, matches [a-z_][a-z0-9_:]*, and carries
//     the treeqd_ prefix;
//   - counters end in _total and non-counters do not (RegisterFunc's type
//     argument is resolved when it is constant);
//   - the help string is a non-empty constant;
//   - label names are constants, drawn from the allowlist, at most three per
//     family.
//
// Registration helpers that pipe a parameter through to the name argument
// (the gauge/counter closures in internal/server/obsv.go) are followed one
// level: the wrapper's own call sites are then held to the same rules, with
// the metric type fixed by what the wrapper passed.
package obsvnames

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Analyzer is the obsvnames analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obsvnames",
	Doc: "check Prometheus naming conventions at obsv registration call sites\n\n" +
		"Metric and label names must be compile-time constants passing the naming\n" +
		"rules ci/promlint.sh checks at runtime, and labels must come from the\n" +
		"cardinality allowlist.",
	Run: run,
}

const obsvPkg = "repro/internal/obsv"

// labelAllowlist is the closed set of label names the exposition may carry.
// Every entry is known-bounded: handler/route/lang/outcome/code enumerate
// small static sets, pool/phase/mode/bound enumerate engine internals, and
// scope is where a panic was recovered (request or document).
// Adding a label means extending this list in the same commit that
// registers it — which is the review point the allowlist exists to create.
var labelAllowlist = map[string]bool{
	"handler": true,
	"code":    true,
	"lang":    true,
	"route":   true,
	"outcome": true,
	"mode":    true,
	"phase":   true,
	"pool":    true,
	"bound":   true,
	"scope":   true,
}

// maxLabels caps the per-family label count; 3 is the current widest family
// (treeqd_query_duration_seconds{lang,route,outcome}).
const maxLabels = 3

var nameRE = regexp.MustCompile(`^[a-z_][a-z0-9_:]*$`)

// registerShape describes one registration entry point's argument layout.
type registerShape struct {
	method    string
	nameArg   int
	typ       string // "counter", "histogram", or "" when carried in an argument
	typArg    int    // argument carrying the type when typ == ""
	helpArg   int
	labelsArg int  // first label argument
	variadic  bool // labels are variadic strings rather than a []string
}

var shapes = []registerShape{
	{method: "RegisterFunc", nameArg: 0, typ: "", typArg: 1, helpArg: 2, labelsArg: 3},
	{method: "NewCounterVec", nameArg: 0, typ: "counter", helpArg: 1, labelsArg: 2, variadic: true},
	{method: "NewHistogramVec", nameArg: 0, typ: "histogram", helpArg: 1, labelsArg: 3, variadic: true},
}

// wrapper records a helper function that forwards its parameters to a
// registration call: which parameter positions carry the name/help, and the
// metric type it registers.
type wrapper struct {
	nameParam int
	helpParam int
	typ       string // resolved type if the wrapper fixes it, else ""
	pos       ast.Node
}

func run(pass *analysis.Pass) (any, error) {
	wrappers := map[types.Object]*wrapper{}

	// First pass: check direct registration call sites; collect wrappers
	// whose name argument is one of their own parameters.  Test files are
	// exempt: their registries never reach the production exposition, and the
	// obsv tests deliberately register un-prefixed families.
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			shape := shapeOf(pass, call)
			if shape == nil {
				return true
			}
			checkRegistration(pass, call, shape, stack, wrappers)
			return true
		})
	}

	// Second pass: hold every wrapper call site to the same rules.
	if len(wrappers) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fun.Sel]
			}
			w, ok := wrappers[obj]
			if !ok {
				return true
			}
			if w.nameParam < len(call.Args) {
				name, isConst := constString(pass, call.Args[w.nameParam])
				if !isConst {
					pass.ReportCategoryf(call.Args[w.nameParam].Pos(), "computedname",
						"metric name passed through a registration helper must still be a compile-time constant")
				} else {
					checkName(pass, call.Args[w.nameParam].Pos(), name, w.typ)
				}
			}
			if w.helpParam >= 0 && w.helpParam < len(call.Args) {
				checkHelp(pass, call.Args[w.helpParam])
			}
			return true
		})
	}
	return nil, nil
}

// shapeOf matches a call against the obsv registration entry points.
func shapeOf(pass *analysis.Pass, call *ast.CallExpr) *registerShape {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != obsvPkg {
		return nil
	}
	for i := range shapes {
		if shapes[i].method == fn.Name() {
			return &shapes[i]
		}
	}
	return nil
}

// checkRegistration validates one direct registration call; a name flowing
// from an enclosing function's parameter registers that function as a
// wrapper instead of reporting.
func checkRegistration(pass *analysis.Pass, call *ast.CallExpr, shape *registerShape, stack []ast.Node, wrappers map[types.Object]*wrapper) {
	if len(call.Args) <= shape.nameArg {
		return
	}

	// Resolve the metric type first; it parameterizes the name rules.
	typ := shape.typ
	if typ == "" && shape.typArg < len(call.Args) {
		if s, ok := constString(pass, call.Args[shape.typArg]); ok {
			typ = s
		}
	}

	nameExpr := call.Args[shape.nameArg]
	name, isConst := constString(pass, nameExpr)
	if !isConst {
		// A name that is a parameter of the enclosing function makes that
		// function a registration wrapper; defer judgment to its call sites.
		if w := wrapperFor(pass, nameExpr, call, shape, typ, stack); w != nil {
			obj, idx := w.obj, w.w
			if prev, dup := wrappers[obj]; !dup || prev == nil {
				wrappers[obj] = idx
			}
			return
		}
		pass.ReportCategoryf(nameExpr.Pos(), "computedname",
			"metric name must be a compile-time constant string (ci/promlint.sh can only check names that reach the exposition; this registration may never scrape)")
		return
	}
	checkName(pass, nameExpr.Pos(), name, typ)

	if shape.helpArg < len(call.Args) {
		checkHelp(pass, call.Args[shape.helpArg])
	}
	checkLabels(pass, call, shape)
}

type boundWrapper struct {
	obj types.Object
	w   *wrapper
}

// wrapperFor recognizes the helper pattern: the name argument is an
// identifier bound to a parameter of the innermost enclosing function
// declaration or function literal assigned to a local variable.
func wrapperFor(pass *analysis.Pass, nameExpr ast.Expr, call *ast.CallExpr, shape *registerShape, typ string, stack []ast.Node) *boundWrapper {
	id, ok := ast.Unparen(nameExpr).(*ast.Ident)
	if !ok {
		return nil
	}
	param, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}

	// Find the innermost enclosing function and check the ident is one of
	// its parameters; record the parameter positions of name and help.
	for i := len(stack) - 1; i >= 0; i-- {
		var ftype *ast.FuncType
		var fobj types.Object
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ftype = fn.Type
			fobj = pass.TypesInfo.Defs[fn.Name]
		case *ast.FuncLit:
			ftype = fn.Type
			// A literal is addressable as a wrapper only when assigned to a
			// variable: `gauge := func(name, help string, ...) {...}`.
			if i > 0 {
				if assign, ok := stack[i-1].(*ast.AssignStmt); ok {
					for j, rhs := range assign.Rhs {
						if rhs == stack[i] && j < len(assign.Lhs) {
							if lhs, ok := assign.Lhs[j].(*ast.Ident); ok {
								fobj = pass.TypesInfo.Defs[lhs]
								if fobj == nil {
									fobj = pass.TypesInfo.Uses[lhs]
								}
							}
						}
					}
				}
			}
		default:
			continue
		}
		if ftype == nil || ftype.Params == nil {
			return nil
		}
		nameIdx := -1
		helpIdx := -1
		idx := 0
		for _, field := range ftype.Params.List {
			for _, pname := range field.Names {
				if pass.TypesInfo.Defs[pname] == param {
					nameIdx = idx
				}
				if shape.helpArg < len(call.Args) {
					if hid, ok := ast.Unparen(call.Args[shape.helpArg]).(*ast.Ident); ok {
						if pass.TypesInfo.Uses[hid] != nil && pass.TypesInfo.Defs[pname] == pass.TypesInfo.Uses[hid] {
							helpIdx = idx
						}
					}
				}
				idx++
			}
		}
		if nameIdx < 0 || fobj == nil {
			return nil
		}
		// Labels must still be checkable at the wrapper definition; a
		// wrapper that also pipes labels through is beyond one-level
		// tracking and the labels check runs here on whatever is visible.
		checkLabels(pass, call, shape)
		return &boundWrapper{obj: fobj, w: &wrapper{nameParam: nameIdx, helpParam: helpIdx, typ: typ, pos: call}}
	}
	return nil
}

// checkName applies the promlint naming rules to a resolved constant name.
func checkName(pass *analysis.Pass, p token.Pos, name, typ string) {
	if !nameRE.MatchString(name) {
		pass.ReportCategoryf(p, "badname", "metric name %q is not a valid Prometheus metric name", name)
		return
	}
	if !strings.HasPrefix(name, "treeqd_") {
		pass.ReportCategoryf(p, "badname", "metric family %q lacks the treeqd_ prefix", name)
	}
	switch typ {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.ReportCategoryf(p, "badname", "counter family %q must end in _total", name)
		}
	case "gauge", "histogram":
		if strings.HasSuffix(name, "_total") {
			pass.ReportCategoryf(p, "badname", "_total suffix on non-counter family %q", name)
		}
	}
}

func checkHelp(pass *analysis.Pass, helpExpr ast.Expr) {
	help, ok := constString(pass, helpExpr)
	if !ok {
		// Help piped through a wrapper parameter is resolved at the wrapper
		// call site; anything else computed is opaque but harmless to
		// naming, so only emptiness is enforced on constants.
		return
	}
	if strings.TrimSpace(help) == "" {
		pass.ReportCategoryf(helpExpr.Pos(), "emptyhelp", "metric help text must not be empty (# HELP line would be bare)")
	}
}

// checkLabels validates the label-name arguments of a registration call.
func checkLabels(pass *analysis.Pass, call *ast.CallExpr, shape *registerShape) {
	var labelExprs []ast.Expr
	if shape.variadic {
		if len(call.Args) > shape.labelsArg {
			labelExprs = call.Args[shape.labelsArg:]
		}
	} else if shape.labelsArg < len(call.Args) {
		arg := ast.Unparen(call.Args[shape.labelsArg])
		switch arg := arg.(type) {
		case *ast.Ident:
			if arg.Name == "nil" {
				return
			}
			pass.ReportCategoryf(arg.Pos(), "computedlabels",
				"label names must be written as a literal at the registration site (nil or []string{...})")
			return
		case *ast.CompositeLit:
			labelExprs = arg.Elts
		default:
			pass.ReportCategoryf(arg.Pos(), "computedlabels",
				"label names must be written as a literal at the registration site (nil or []string{...})")
			return
		}
	}
	if len(labelExprs) > maxLabels {
		pass.ReportCategoryf(call.Pos(), "toomanylabels",
			"%d labels on one family; the cardinality budget is %d (see the obsvnames allowlist)", len(labelExprs), maxLabels)
	}
	for _, e := range labelExprs {
		label, ok := constString(pass, e)
		if !ok {
			pass.ReportCategoryf(e.Pos(), "computedlabels", "label name must be a compile-time constant string")
			continue
		}
		if !labelAllowlist[label] {
			pass.ReportCategoryf(e.Pos(), "unknownlabel",
				"label %q is not in the obsvnames cardinality allowlist; bounded labels are added to the allowlist in the registering commit", label)
		}
	}
}

// constString resolves e to a compile-time string constant.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
