// Package mdatalog implements monadic datalog over the tree signature tau+
// (Section 3 of the paper): programs whose intensional predicates are all
// unary, evaluated over the extensional predicates
//
//	Root(x), Leaf(x), FirstSibling(x), LastSibling(x), Lab[a](x)   (unary)
//	FirstChild(x,y), NextSibling(x,y), Child(x,y)                  (binary)
//
// and their inverses (written R^-1, or Parent / PrevSibling / FirstChildOf).
//
// Evaluation follows Theorem 3.2: the program is brought into (an extension
// of) the Tree-Marking Normal Form of Definition 3.4, grounded over the tree
// in time O(|P| * |Dom|), and the resulting propositional Horn program is
// solved with Minoux' linear-time algorithm (package hornsat).  Evaluate does
// exactly that, and is the paper's construction as written.  Compile +
// SolveCtx reach the same least model without materializing the ground
// program, and are what the query engine executes: every TMNF hop points one
// way in preorder, so each strongly connected component of the predicate
// graph is settled by an image step, one sweep over the ranks, or — only
// when its rules point both ways — unit propagation.  Ground is their
// oracle.
package mdatalog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tree"
)

// Variable is a datalog variable.
type Variable string

// Atom is a datalog atom: Pred(Args...).  Unary atoms have one argument,
// binary atoms two.
type Atom struct {
	Pred string
	Args []Variable
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, v := range a.Args {
		parts[i] = string(v)
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ","))
}

// Rule is a definite datalog rule Head :- Body.
type Rule struct {
	Head Atom
	Body []Atom
}

// String renders the rule in datalog syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, a := range r.Body {
		parts[i] = a.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a monadic datalog program with a distinguished query predicate.
type Program struct {
	Rules []Rule
	Query string
}

// String renders the program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteString("\n")
	}
	if p.Query != "" {
		fmt.Fprintf(&sb, "?- %s.\n", p.Query)
	}
	return sb.String()
}

// Size returns the total number of atoms in the program (the |P| of
// Theorem 3.2).
func (p *Program) Size() int {
	s := 0
	for _, r := range p.Rules {
		s += 1 + len(r.Body)
	}
	return s
}

// IntensionalPredicates returns the sorted set of predicates occurring in
// rule heads.
func (p *Program) IntensionalPredicates() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Extensional predicate names.
const (
	PredRoot         = "Root"
	PredLeaf         = "Leaf"
	PredFirstSibling = "FirstSibling"
	PredLastSibling  = "LastSibling"
	PredFirstChild   = "FirstChild"
	PredNextSibling  = "NextSibling"
	PredChild        = "Child"
)

// LabelSet returns the sorted distinct labels the program mentions through
// Lab[...] predicates, in heads or bodies.  Evaluation depends on the
// document only through node count, the structural relations, and these
// labels' extensions, so a shape-preserving edit touching none of them cannot
// change the program's answers.
func (p *Program) LabelSet() []string {
	set := map[string]bool{}
	add := func(a Atom) {
		if l, ok := labelPred(a.Pred); ok {
			set[l] = true
		}
	}
	for _, r := range p.Rules {
		add(r.Head)
		for _, b := range r.Body {
			add(b)
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// labelPred reports whether the predicate is a label predicate Lab[a] and
// extracts the label.
func labelPred(p string) (string, bool) {
	if strings.HasPrefix(p, "Lab[") && strings.HasSuffix(p, "]") {
		return p[len("Lab[") : len(p)-1], true
	}
	return "", false
}

// isExtensionalUnary reports whether p is one of the unary tau+ predicates.
func isExtensionalUnary(p string) bool {
	if _, ok := labelPred(p); ok {
		return true
	}
	switch p {
	case PredRoot, PredLeaf, PredFirstSibling, PredLastSibling:
		return true
	}
	return false
}

// binaryBase returns the base binary predicate and whether the name denotes
// its inverse; ok=false if p is not a binary tau+ predicate.
func binaryBase(p string) (base string, inverse, ok bool) {
	switch p {
	case PredFirstChild, PredNextSibling, PredChild:
		return p, false, true
	case PredFirstChild + "^-1", "FirstChildOf":
		return PredFirstChild, true, true
	case PredNextSibling + "^-1", "PrevSibling":
		return PredNextSibling, true, true
	case PredChild + "^-1", "Parent":
		return PredChild, true, true
	}
	return "", false, false
}

// isExtensionalBinary reports whether p is a binary tau+ predicate (possibly
// inverted).
func isExtensionalBinary(p string) bool {
	_, _, ok := binaryBase(p)
	return ok
}

// Validate checks that the program is monadic datalog over tau+: every head
// is unary and intensional (not a tau+ predicate), every body atom is either
// a unary atom (intensional or extensional), or an extensional binary atom,
// and every head variable occurs in the rule body (safety).
func (p *Program) Validate() error {
	intensional := map[string]bool{}
	for _, r := range p.Rules {
		intensional[r.Head.Pred] = true
	}
	for _, r := range p.Rules {
		if len(r.Head.Args) != 1 {
			return fmt.Errorf("mdatalog: head %s is not unary", r.Head)
		}
		if isExtensionalUnary(r.Head.Pred) || isExtensionalBinary(r.Head.Pred) {
			return fmt.Errorf("mdatalog: head predicate %s is extensional", r.Head.Pred)
		}
		bodyVars := map[Variable]bool{}
		for _, a := range r.Body {
			switch len(a.Args) {
			case 1:
				if !isExtensionalUnary(a.Pred) && !intensional[a.Pred] {
					return fmt.Errorf("mdatalog: unknown unary predicate %s in rule %s", a.Pred, r)
				}
			case 2:
				if !isExtensionalBinary(a.Pred) {
					return fmt.Errorf("mdatalog: unknown binary predicate %s in rule %s (intensional predicates must be unary)", a.Pred, r)
				}
			default:
				return fmt.Errorf("mdatalog: atom %s has arity %d", a, len(a.Args))
			}
			for _, v := range a.Args {
				bodyVars[v] = true
			}
		}
		if len(r.Body) > 0 && !bodyVars[r.Head.Args[0]] {
			return fmt.Errorf("mdatalog: head variable %s of rule %s does not occur in the body", r.Head.Args[0], r)
		}
	}
	if p.Query != "" && !intensional[p.Query] {
		return fmt.Errorf("mdatalog: query predicate %s is not defined by any rule", p.Query)
	}
	return nil
}

// Parse parses a program in datalog syntax, one rule per line:
//
//	P0(x) :- Lab[L](x).
//	P0(x) :- NextSibling(x, y), P0(y).
//	P(x)  :- FirstChild(x, y), P0(y).
//	P0(x) :- P(x).
//	?- P.
//
// Comment lines start with '%' or '#'.  The "?- Pred." line names the query
// predicate (optional; the last head predicate is used otherwise).
func Parse(text string) (*Program, error) {
	p := &Program{}
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "?-") {
			q := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "?-"), "."))
			p.Query = q
			continue
		}
		line = strings.TrimSuffix(line, ".")
		headText := line
		bodyText := ""
		if i := strings.Index(line, ":-"); i >= 0 {
			headText = strings.TrimSpace(line[:i])
			bodyText = strings.TrimSpace(line[i+2:])
		}
		head, err := parseAtom(headText)
		if err != nil {
			return nil, fmt.Errorf("mdatalog: line %d: %v", lineNo+1, err)
		}
		rule := Rule{Head: head}
		if bodyText != "" {
			for _, at := range splitTopLevel(bodyText) {
				at = strings.TrimSpace(at)
				if at == "" {
					continue
				}
				a, err := parseAtom(at)
				if err != nil {
					return nil, fmt.Errorf("mdatalog: line %d: %v", lineNo+1, err)
				}
				rule.Body = append(rule.Body, a)
			}
		}
		p.Rules = append(p.Rules, rule)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("mdatalog: empty program")
	}
	if p.Query == "" {
		p.Query = p.Rules[len(p.Rules)-1].Head.Pred
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustParse is like Parse but panics on error.
func MustParse(text string) *Program {
	p, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return p
}

func parseAtom(s string) (Atom, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return Atom{}, fmt.Errorf("malformed atom %q", s)
	}
	pred := strings.TrimSpace(s[:open])
	if pred == "" {
		return Atom{}, fmt.Errorf("empty predicate in %q", s)
	}
	argText := s[open+1 : len(s)-1]
	var args []Variable
	for _, a := range splitTopLevel(argText) {
		a = strings.TrimSpace(a)
		if a == "" {
			return Atom{}, fmt.Errorf("empty argument in %q", s)
		}
		if !isIdentifier(a) {
			return Atom{}, fmt.Errorf("malformed variable %q in %q", a, s)
		}
		args = append(args, Variable(a))
	}
	if len(args) == 0 || len(args) > 2 {
		return Atom{}, fmt.Errorf("atom %q must have one or two arguments", s)
	}
	return Atom{Pred: pred, Args: args}, nil
}

// isIdentifier reports whether s is a plain identifier (letters, digits,
// underscores), i.e. a well-formed variable name.
func isIdentifier(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			continue
		}
		return false
	}
	return len(s) > 0
}

func splitTopLevel(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// holdsUnary evaluates an extensional unary predicate on a node.
func holdsUnary(t *tree.Tree, pred string, n tree.NodeID) bool {
	if l, ok := labelPred(pred); ok {
		return t.HasLabel(n, l)
	}
	switch pred {
	case PredRoot:
		return t.IsRoot(n)
	case PredLeaf:
		return t.IsLeaf(n)
	case PredFirstSibling:
		return t.IsFirstSibling(n)
	case PredLastSibling:
		return t.IsLastSibling(n)
	}
	return false
}

// binaryPairsFunc calls yield(u, v) for every pair with pred(u, v), visiting
// each pair once.  Total cost over all nodes is O(|Dom|) for FirstChild and
// NextSibling (functional relations) and O(|Dom|) for Child as well (sum of
// child counts).
func binaryPairsFunc(t *tree.Tree, pred string, yield func(u, v tree.NodeID)) {
	base, inverse, ok := binaryBase(pred)
	if !ok {
		return
	}
	if inverse {
		direct := yield
		yield = func(u, v tree.NodeID) { direct(v, u) }
	}
	for u := range tree.NodeID(t.Len()) {
		switch base {
		case PredFirstChild:
			if c := t.FirstChild(u); c != tree.InvalidNode {
				yield(u, c)
			}
		case PredNextSibling:
			if s := t.NextSibling(u); s != tree.InvalidNode {
				yield(u, s)
			}
		case PredChild:
			for c := t.FirstChild(u); c != tree.InvalidNode; c = t.NextSibling(c) {
				yield(u, c)
			}
		}
	}
}
