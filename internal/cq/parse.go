package cq

import (
	"fmt"
	"strings"
	"unicode"

	"repro/internal/tree"
)

// Parse parses a conjunctive query in datalog notation:
//
//	Q(x, y) :- Child(x, y), Lab[a](x), Child+(y, z), x <pre z.
//
// The head is "Q" (Boolean) or "Q(v1, ..., vk)".  Body atoms are
//
//	<Axis>(x, y)      -- axis names as accepted by tree.ParseAxis
//	Lab[<label>](x)   -- label atom; also accepted: label(x) for a bare
//	                     lowercase label that is not an axis name
//	x <pre y          -- order atoms (<pre, <post, <bflr)
//
// Variables are identifiers (a letter or underscore, then letters, digits
// and underscores); a label is any text that keeps the brackets of the query
// balanced, such as "@name=africa".  The trailing period is optional.
func Parse(input string) (*Query, error) {
	s := strings.TrimSpace(input)
	s = strings.TrimSuffix(s, ".")
	headPart := s
	bodyPart := ""
	if i := strings.Index(s, ":-"); i >= 0 {
		headPart = strings.TrimSpace(s[:i])
		bodyPart = strings.TrimSpace(s[i+2:])
	}
	q := &Query{}

	// Head.
	if headPart == "" {
		return nil, fmt.Errorf("cq: empty head")
	}
	if i := strings.IndexByte(headPart, '('); i >= 0 {
		if !strings.HasSuffix(headPart, ")") {
			return nil, fmt.Errorf("cq: malformed head %q", headPart)
		}
		vars, err := splitTopLevel(headPart[i+1 : len(headPart)-1])
		if err != nil {
			return nil, err
		}
		for _, v := range vars {
			x, err := variable(v)
			if err != nil {
				return nil, fmt.Errorf("%w in head %q", err, headPart)
			}
			q.Head = append(q.Head, x)
		}
	}

	// Body.
	if bodyPart == "" || bodyPart == "true" {
		if err := q.Validate(); err != nil {
			return nil, err
		}
		return q, nil
	}
	atoms, err := splitTopLevel(bodyPart)
	if err != nil {
		return nil, err
	}
	for _, atomText := range atoms {
		atomText = strings.TrimSpace(atomText)
		if atomText == "" {
			continue
		}
		if err := parseAtom(q, atomText); err != nil {
			return nil, err
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is like Parse but panics on error.
func MustParse(input string) *Query {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

func parseAtom(q *Query, s string) error {
	// Order atom: "x <pre y" etc.
	for _, o := range tree.AllOrders() {
		marker := " " + o.String() + " "
		if i := strings.Index(s, marker); i > 0 {
			from, err1 := variable(s[:i])
			to, err2 := variable(s[i+len(marker):])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("cq: malformed order atom %q", s)
			}
			q.Orders = append(q.Orders, OrderAtom{Order: o, From: from, To: to})
			return nil
		}
	}
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return fmt.Errorf("cq: malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	argsText, err := splitTopLevel(s[open+1 : len(s)-1])
	if err != nil {
		return err
	}
	var args []Variable
	for _, a := range argsText {
		v, err := variable(a)
		if err != nil {
			return fmt.Errorf("%w in atom %q", err, s)
		}
		args = append(args, v)
	}

	// Label atom Lab[a](x).
	if strings.HasPrefix(pred, "Lab[") && strings.HasSuffix(pred, "]") {
		if len(args) != 1 {
			return fmt.Errorf("cq: label atom %q must have exactly one variable", s)
		}
		q.Labels = append(q.Labels, LabelAtom{Var: args[0], Label: pred[len("Lab[") : len(pred)-1]})
		return nil
	}

	// Axis atom.
	if axis, err := tree.ParseAxis(pred); err == nil {
		if len(args) != 2 {
			return fmt.Errorf("cq: axis atom %q must have exactly two variables", s)
		}
		q.Axes = append(q.Axes, AxisAtom{Axis: axis, From: args[0], To: args[1]})
		return nil
	}

	// Bare label atom a(x): treated as Lab[a](x) when unary.
	if len(args) == 1 {
		q.Labels = append(q.Labels, LabelAtom{Var: args[0], Label: pred})
		return nil
	}
	return fmt.Errorf("cq: unknown predicate %q in atom %q", pred, s)
}

// variable trims s and checks that it is an identifier: a letter or
// underscore, then letters, digits and underscores.
func variable(s string) (Variable, error) {
	s = strings.TrimSpace(s)
	for i, r := range s {
		if r != '_' && !unicode.IsLetter(r) && (i == 0 || !unicode.IsDigit(r)) {
			return "", fmt.Errorf("cq: variable %q is not an identifier", s)
		}
	}
	if s == "" {
		return "", fmt.Errorf("cq: empty variable")
	}
	return Variable(s), nil
}

// splitTopLevel splits s on commas that are not nested inside brackets.  A
// bracket that closes before it opens, or stays open, is an error: String
// could not print such a query back into text that parses.
func splitTopLevel(s string) ([]string, error) {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			if depth--; depth < 0 {
				return nil, fmt.Errorf("cq: unbalanced %q in %q", s[i], s)
			}
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("cq: unclosed bracket in %q", s)
	}
	return append(out, s[start:]), nil
}
