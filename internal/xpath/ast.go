// Package xpath implements Core XPath (Section 3 of the paper): the
// navigational fragment of XPath whose expressions map a context node to a
// node set and whose qualifiers map a node to a Boolean.
//
// The package provides
//
//   - a parser for a standard XPath-like concrete syntax covering exactly
//     the Core XPath grammar (axes, label tests, qualifiers with and/or/not,
//     path qualifiers, union, and the / and // abbreviations),
//   - the textbook top-down semantics (P1)-(P4), (Q1)-(Q5) as
//     EvaluateNaive, which re-evaluates subexpressions per node and serves
//     as the reference oracle and as the "exponential-time" baseline the
//     efficient algorithms of [33] improve on,
//   - an efficient set-at-a-time evaluator (Evaluate) in the spirit of the
//     Gottlob-Koch-Pichler bottom-up/top-down algorithms: every step maps a
//     whole context set through the axis with the preorder-rank view's
//     Image (package index) — a range fill or one pointer chase per context
//     node — and every qualifier is evaluated once globally into its
//     satisfaction set, giving O(|D| * |Q|) combined complexity for Core
//     XPath,
//   - a translation of conjunctive Core XPath (no union, or, not) into
//     conjunctive queries (ToCQ), connecting the XPath front end to the
//     CQ machinery of Sections 4-6.
package xpath

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tree"
)

// Expr is a Core XPath path expression (NodeSet-valued).
type Expr interface {
	exprString() string
}

// Path is a sequence of location steps applied left to right.
// If Absolute, evaluation starts at the root regardless of context.
type Path struct {
	Absolute bool
	Steps    []Step
}

func (p *Path) exprString() string {
	var sb strings.Builder
	if p.Absolute {
		sb.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Union is p1 ∪ p2.
type Union struct {
	Left, Right Expr
}

func (u *Union) exprString() string {
	return u.Left.exprString() + " | " + u.Right.exprString()
}

// Step is one location step: an axis, a node test (label or "*"), and a
// possibly empty list of qualifiers.
type Step struct {
	Axis  tree.Axis
	Test  string // "*" means any label
	Quals []Qual
}

// String renders the step in axis::test[q]... syntax.
func (s Step) String() string {
	out := axisXPathName(s.Axis) + "::" + s.Test
	for _, q := range s.Quals {
		out += "[" + q.qualString() + "]"
	}
	return out
}

// Qual is a Core XPath qualifier (Boolean-valued).
type Qual interface {
	qualString() string
}

// QualPath tests whether the path yields a non-empty node set (Q2).
type QualPath struct{ Path Expr }

func (q *QualPath) qualString() string { return q.Path.exprString() }

// QualLabel is the label test lab() = L (Q1).
type QualLabel struct{ Label string }

func (q *QualLabel) qualString() string { return "lab() = " + q.Label }

// QualAnd is conjunction (Q3).
type QualAnd struct{ Left, Right Qual }

func (q *QualAnd) qualString() string { return q.Left.qualString() + " and " + q.Right.qualString() }

// QualOr is disjunction (Q4).
type QualOr struct{ Left, Right Qual }

func (q *QualOr) qualString() string { return q.Left.qualString() + " or " + q.Right.qualString() }

// QualNot is negation (Q5).
type QualNot struct{ Inner Qual }

func (q *QualNot) qualString() string { return "not(" + q.Inner.qualString() + ")" }

// String renders the expression back to concrete syntax.
func String(e Expr) string { return e.exprString() }

// axisXPathName maps a tree.Axis to its XPath axis name.
func axisXPathName(a tree.Axis) string {
	switch a {
	case tree.Self:
		return "self"
	case tree.Child:
		return "child"
	case tree.Descendant:
		return "descendant"
	case tree.DescendantOrSelf:
		return "descendant-or-self"
	case tree.Parent:
		return "parent"
	case tree.Ancestor:
		return "ancestor"
	case tree.AncestorOrSelf:
		return "ancestor-or-self"
	case tree.FollowingSibling:
		return "following-sibling"
	case tree.PrecedingSibling:
		return "preceding-sibling"
	case tree.Following:
		return "following"
	case tree.Preceding:
		return "preceding"
	case tree.NextSiblingAxis:
		return "next-sibling"
	case tree.PrevSiblingAxis:
		return "previous-sibling"
	case tree.FollowingSiblingOrSelf:
		return "following-sibling-or-self"
	case tree.PrecedingSiblingOrSelf:
		return "preceding-sibling-or-self"
	}
	return fmt.Sprintf("axis%d", int(a))
}

// xpathAxisByName is the inverse of axisXPathName for the parser.
var xpathAxisByName = map[string]tree.Axis{
	"self":                      tree.Self,
	"child":                     tree.Child,
	"descendant":                tree.Descendant,
	"descendant-or-self":        tree.DescendantOrSelf,
	"parent":                    tree.Parent,
	"ancestor":                  tree.Ancestor,
	"ancestor-or-self":          tree.AncestorOrSelf,
	"following-sibling":         tree.FollowingSibling,
	"preceding-sibling":         tree.PrecedingSibling,
	"following":                 tree.Following,
	"preceding":                 tree.Preceding,
	"next-sibling":              tree.NextSiblingAxis,
	"previous-sibling":          tree.PrevSiblingAxis,
	"following-sibling-or-self": tree.FollowingSiblingOrSelf,
	"preceding-sibling-or-self": tree.PrecedingSiblingOrSelf,
}

// IsForward reports whether the expression uses only forward axes (Self,
// Child, Child+, Child*, NextSibling+, NextSibling*, Following); such
// queries can be evaluated in a single document pass (Section 5 / package
// stream).
func IsForward(e Expr) bool {
	forward := true
	walkExpr(e, func(s Step) {
		if !s.Axis.IsForward() {
			forward = false
		}
	})
	return forward
}

// IsPositive reports whether the expression avoids negation.
func IsPositive(e Expr) bool {
	positive := true
	var checkQual func(q Qual)
	checkQual = func(q Qual) {
		switch q := q.(type) {
		case *QualNot:
			positive = false
		case *QualAnd:
			checkQual(q.Left)
			checkQual(q.Right)
		case *QualOr:
			checkQual(q.Left)
			checkQual(q.Right)
		case *QualPath:
			if !IsPositive(q.Path) {
				positive = false
			}
		}
	}
	switch e := e.(type) {
	case *Union:
		return IsPositive(e.Left) && IsPositive(e.Right)
	case *Path:
		for _, s := range e.Steps {
			for _, q := range s.Quals {
				checkQual(q)
			}
		}
	}
	return positive
}

// IsConjunctive reports whether the expression is conjunctive Core XPath:
// no union, no disjunction, no negation (Section 3).
func IsConjunctive(e Expr) bool {
	conj := true
	var checkQual func(q Qual)
	checkQual = func(q Qual) {
		switch q := q.(type) {
		case *QualNot, *QualOr:
			conj = false
		case *QualAnd:
			checkQual(q.Left)
			checkQual(q.Right)
		case *QualPath:
			if !IsConjunctive(q.Path) {
				conj = false
			}
		}
	}
	switch e := e.(type) {
	case *Union:
		return false
	case *Path:
		for _, s := range e.Steps {
			for _, q := range s.Quals {
				checkQual(q)
			}
		}
	}
	return conj
}

// Size returns the number of steps and qualifier operators in the
// expression -- the |Q| measure of the combined-complexity bounds.
func Size(e Expr) int {
	n := 0
	switch e := e.(type) {
	case *Union:
		return 1 + Size(e.Left) + Size(e.Right)
	case *Path:
		for _, s := range e.Steps {
			n++
			for _, q := range s.Quals {
				n += qualSize(q)
			}
		}
	}
	return n
}

func qualSize(q Qual) int {
	switch q := q.(type) {
	case *QualLabel:
		return 1
	case *QualPath:
		return Size(q.Path)
	case *QualAnd:
		return 1 + qualSize(q.Left) + qualSize(q.Right)
	case *QualOr:
		return 1 + qualSize(q.Left) + qualSize(q.Right)
	case *QualNot:
		return 1 + qualSize(q.Inner)
	}
	return 1
}

// LabelSet returns the sorted distinct labels the expression mentions: step
// node tests (excluding "*") and lab() = L qualifiers, including those nested
// in path qualifiers.  The incremental-update layer intersects this set with
// a diff's touched labels to decide whether a document patch can have
// changed a prepared plan's answers.
func LabelSet(e Expr) []string {
	seen := map[string]bool{}
	var visitExpr func(Expr)
	var visitQual func(Qual)
	visitQual = func(q Qual) {
		switch q := q.(type) {
		case *QualLabel:
			seen[q.Label] = true
		case *QualPath:
			visitExpr(q.Path)
		case *QualAnd:
			visitQual(q.Left)
			visitQual(q.Right)
		case *QualOr:
			visitQual(q.Left)
			visitQual(q.Right)
		case *QualNot:
			visitQual(q.Inner)
		}
	}
	visitExpr = func(e Expr) {
		switch e := e.(type) {
		case *Union:
			visitExpr(e.Left)
			visitExpr(e.Right)
		case *Path:
			for _, s := range e.Steps {
				if s.Test != "*" {
					seen[s.Test] = true
				}
				for _, q := range s.Quals {
					visitQual(q)
				}
			}
		}
	}
	visitExpr(e)
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// walkExpr calls f on every step of the expression, including steps inside
// path qualifiers.
func walkExpr(e Expr, f func(Step)) {
	switch e := e.(type) {
	case *Union:
		walkExpr(e.Left, f)
		walkExpr(e.Right, f)
	case *Path:
		for _, s := range e.Steps {
			f(s)
			for _, q := range s.Quals {
				walkQual(q, f)
			}
		}
	}
}

func walkQual(q Qual, f func(Step)) {
	switch q := q.(type) {
	case *QualPath:
		walkExpr(q.Path, f)
	case *QualAnd:
		walkQual(q.Left, f)
		walkQual(q.Right, f)
	case *QualOr:
		walkQual(q.Left, f)
		walkQual(q.Right, f)
	case *QualNot:
		walkQual(q.Inner, f)
	}
}
