package xpath

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/tree"
)

// Parse parses a Core XPath expression.  Supported syntax:
//
//	expr      := path ( '|' path )*
//	path      := ['/' | '//'] step ( ('/' | '//') step )*
//	step      := [axis '::'] test qual*  |  '.'  |  '..'
//	test      := NAME | '*'
//	qual      := '[' q ']'
//	q         := qand ( 'or' qand )*
//	qand      := qprim ( 'and' qprim )*
//	qprim     := 'not' '(' q ')' | '(' q ')' | 'lab()' '=' NAME | expr
//
// The abbreviation '//' between steps stands for
// /descendant-or-self::*/ as in XPath; a leading '/' makes the path
// absolute (evaluated from the root).  '.' is self::* and '..' is parent::*.
// Qualifiers and parentheses nested deeper than maxNesting are an error.
func Parse(input string) (Expr, error) {
	p := &parser{input: input}
	p.skipSpace()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, p.errf("unexpected trailing input %q", p.input[p.pos:])
	}
	return e, nil
}

// MustParse is like Parse but panics on error.
func MustParse(input string) Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}

// ErrNotStreamable is returned by StreamableSteps for an expression outside
// the streamable fragment.  Package stream reports it as stream.ErrUnsupported,
// whose "stream:" text it keeps.
var ErrNotStreamable = errors.New("stream: expression is outside the streamable downward-path fragment")

// StreamableSteps checks that e is in the streamable fragment — an absolute,
// qualifier-free path of child, descendant and descendant-or-self steps — and
// returns its steps with every "//" fused (see fuse): //item//keyword is two
// descendant steps, not four.  Qualifiers, unions, reverse and sibling axes
// and relative paths fail with ErrNotStreamable.
func StreamableSteps(e Expr) ([]Step, error) {
	path, ok := e.(*Path)
	if !ok || !path.Absolute || len(path.Steps) == 0 {
		return nil, ErrNotStreamable
	}
	steps := make([]Step, 0, len(path.Steps))
	for i := 0; i < len(path.Steps); i++ {
		s := path.Steps[i]
		if i+1 < len(path.Steps) {
			if f, ok := fuse(s, path.Steps[i+1]); ok {
				s, i = f, i+1
			}
		}
		if len(s.Quals) > 0 {
			return nil, ErrNotStreamable
		}
		switch s.Axis {
		case tree.Child, tree.Descendant, tree.DescendantOrSelf:
		default:
			return nil, ErrNotStreamable
		}
		steps = append(steps, s)
	}
	return steps, nil
}

type parser struct {
	input string
	pos   int
	depth int
}

// maxNesting bounds parser recursion: queries arrive as request text, and a
// long enough run of "a[" or "not(" would otherwise overflow the goroutine
// stack — a fatal error no recover can catch.
const maxNesting = 1000

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("xpath: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t' || p.input[p.pos] == '\n') {
		p.pos++
	}
}

func (p *parser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.input[p.pos:], s)
}

func (p *parser) consume(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		// '|' is union; take care not to confuse with nothing else in this grammar.
		if !p.consume("|") {
			return left, nil
		}
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &Union{Left: left, Right: right}
	}
}

func (p *parser) parsePath() (Expr, error) {
	path := &Path{}
	p.skipSpace()
	needStep := true
	if p.consume("//") {
		path.Absolute = true
		path.Steps = append(path.Steps, Step{Axis: tree.DescendantOrSelf, Test: "*"})
	} else if p.consume("/") {
		path.Absolute = true
		needStep = false // a bare "/" is permitted (it selects the document node)
	}
	for {
		p.skipSpace()
		step, ok, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		if !ok {
			if needStep {
				return nil, p.errf("expected a location step")
			}
			break
		}
		path.Steps = append(path.Steps, step)
		needStep = false
		p.skipSpace()
		if p.consume("//") {
			path.Steps = append(path.Steps, Step{Axis: tree.DescendantOrSelf, Test: "*"})
			needStep = true
			continue
		}
		if p.consume("/") {
			needStep = true
			continue
		}
		break
	}
	return path, nil
}

func (p *parser) parseStep() (Step, bool, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return Step{}, false, nil
	}
	// '.' and '..'
	if strings.HasPrefix(p.input[p.pos:], "..") {
		p.pos += 2
		return Step{Axis: tree.Parent, Test: "*"}, true, nil
	}
	if p.pos < len(p.input) && p.input[p.pos] == '.' {
		p.pos++
		return Step{Axis: tree.Self, Test: "*"}, true, nil
	}
	start := p.pos
	name := p.scanName()
	if name == "" && !p.peek("*") {
		p.pos = start
		return Step{}, false, nil
	}
	var step Step
	if p.consume("::") {
		axis, ok := xpathAxisByName[name]
		if !ok {
			return Step{}, false, p.errf("unknown axis %q", name)
		}
		step.Axis = axis
		if p.consume("*") {
			step.Test = "*"
		} else {
			test := p.scanName()
			if test == "" {
				return Step{}, false, p.errf("expected a node test after %s::", name)
			}
			step.Test = test
		}
	} else {
		// Abbreviated step: child axis with the name as the test.
		step.Axis = tree.Child
		if name == "" {
			if !p.consume("*") {
				return Step{}, false, p.errf("expected a name or *")
			}
			step.Test = "*"
		} else {
			step.Test = name
		}
	}
	// Qualifiers.
	for {
		p.skipSpace()
		if !p.consume("[") {
			break
		}
		q, err := p.parseQual()
		if err != nil {
			return Step{}, false, err
		}
		p.skipSpace()
		if !p.consume("]") {
			return Step{}, false, p.errf("expected ']'")
		}
		step.Quals = append(step.Quals, q)
	}
	return step, true, nil
}

func (p *parser) scanName() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '@' || c == '=' {
			// '-' is allowed inside names (axis names, labels like data-set);
			// stop if this is actually the "::" of an axis... handled by caller.
			p.pos++
			continue
		}
		break
	}
	return p.input[start:p.pos]
}

// parseQual is the one step of every recursive cycle in the grammar ('[',
// 'not(' and '(' all open a q), so it is where nesting is counted.
func (p *parser) parseQual() (Qual, error) {
	if p.depth++; p.depth > maxNesting {
		return nil, p.errf("qualifiers nested deeper than %d", maxNesting)
	}
	defer func() { p.depth-- }()
	return p.parseQualOr()
}

func (p *parser) parseQualOr() (Qual, error) {
	left, err := p.parseQualAnd()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.consumeKeyword("or") {
			return left, nil
		}
		right, err := p.parseQualAnd()
		if err != nil {
			return nil, err
		}
		left = &QualOr{Left: left, Right: right}
	}
}

func (p *parser) parseQualAnd() (Qual, error) {
	left, err := p.parseQualPrim()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.consumeKeyword("and") {
			return left, nil
		}
		right, err := p.parseQualPrim()
		if err != nil {
			return nil, err
		}
		left = &QualAnd{Left: left, Right: right}
	}
}

// consumeKeyword consumes the keyword only if it is followed by a
// non-identifier character (so a label named "order" is not split).
func (p *parser) consumeKeyword(kw string) bool {
	p.skipSpace()
	if !strings.HasPrefix(p.input[p.pos:], kw) {
		return false
	}
	after := p.pos + len(kw)
	if after < len(p.input) {
		c := p.input[after]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			return false
		}
	}
	p.pos = after
	return true
}

func (p *parser) parseQualPrim() (Qual, error) {
	p.skipSpace()
	if p.consumeKeyword("not") {
		p.skipSpace()
		if !p.consume("(") {
			return nil, p.errf("expected '(' after not")
		}
		inner, err := p.parseQual()
		if err != nil {
			return nil, err
		}
		if !p.consume(")") {
			return nil, p.errf("expected ')' after not(...)")
		}
		return &QualNot{Inner: inner}, nil
	}
	if p.consume("(") {
		inner, err := p.parseQual()
		if err != nil {
			return nil, err
		}
		if !p.consume(")") {
			return nil, p.errf("expected ')'")
		}
		return inner, nil
	}
	if p.peek("lab()") {
		p.consume("lab()")
		p.skipSpace()
		if !p.consume("=") {
			return nil, p.errf("expected '=' after lab()")
		}
		p.skipSpace()
		label := p.scanName()
		if label == "" {
			return nil, p.errf("expected a label after lab() =")
		}
		return &QualLabel{Label: label}, nil
	}
	// Otherwise: a relative (or absolute) path expression.
	e, err := p.parseExprInQualifier()
	if err != nil {
		return nil, err
	}
	return &QualPath{Path: e}, nil
}

// parseExprInQualifier parses a path expression inside a qualifier; unions
// are allowed.
func (p *parser) parseExprInQualifier() (Expr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if !p.consume("|") {
			return left, nil
		}
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &Union{Left: left, Right: right}
	}
}
