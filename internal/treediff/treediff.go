// Package treediff computes edit scripts between two revisions of an
// unranked ordered labeled tree, using the pre-order-with-parentheses
// canonical form as the diff substrate (the same node order the XASR of
// Section 2 is keyed on).
//
// The supported script shape is a single splice: one contiguous preorder
// interval of the old tree — a forest of consecutive sibling subtrees under a
// common parent — replaced by one such forest of the new tree, with
// everything outside the interval unchanged up to a uniform pre/post shift.
// That shape covers the edits incremental maintenance cares about (subtree
// insert, subtree delete, subtree replace, label rename, text edit) and is
// exactly the shape index.Patch can absorb: it carries an untouched label's
// node list and mask by shifting the ids past the splice by one delta
// instead of rebuilding them.  Edits that do not reduce to a
// single splice — or that Diff cannot verify as one — report ok=false, and
// the caller falls back to a full rebuild; a missed patch opportunity is
// always safe, a wrong splice never is, so every structural precondition of
// the shift rules is checked explicitly rather than assumed.
package treediff

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tree"
)

// Kind classifies a single-splice edit script.
type Kind int

const (
	// KindNone means the two trees are identical (empty splice).
	KindNone Kind = iota
	// KindRelabel is a shape-preserving edit: node count and structure are
	// unchanged and only labels and/or text differ inside the splice.
	KindRelabel
	// KindInsert inserts a forest of consecutive sibling subtrees (OldLen 0).
	KindInsert
	// KindDelete deletes a forest of consecutive sibling subtrees (NewLen 0).
	KindDelete
	// KindReplace replaces one sibling forest by another of a different shape.
	KindReplace
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindRelabel:
		return "relabel"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindReplace:
		return "replace"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Script is a verified single-splice edit script between two trees: rows
// [Start, Start+OldLen) of the old tree's preorder sequence are replaced by
// rows [Start, Start+NewLen) of the new tree's, and every surviving node
// keeps its identity up to the uniform shift NewLen-OldLen.
type Script struct {
	// Old and New are the two revisions the script was computed between.
	Old, New *tree.Tree
	// Kind classifies the edit.
	Kind Kind
	// Start is the 0-based preorder row where the splice begins (row i holds
	// the node with 1-based preorder index i+1, matching the XASR layout).
	Start int
	// OldLen and NewLen are the number of replaced rows in the old tree and
	// of replacement rows in the new tree.
	OldLen, NewLen int
	// ShapePreserving reports that the splice changes no structure at all:
	// OldLen == NewLen and every node keeps its parent, so only labels and
	// text differ.  Shape-preserving edits are the ones whose ground datalog
	// programs stay reusable when the program's label set is disjoint from
	// Touched (grounding depends only on structure plus the program's own
	// label predicates).
	ShapePreserving bool
	// Touched is the sorted set of labels whose extension — the set of nodes
	// carrying the label, as node ids — the edit can have changed: the labels
	// whose derived index artifacts (and label-intersecting plans) it can
	// invalidate.
	//
	// A shape-preserving script moves no node, so a label's extension changes
	// only where a node's label list does: Touched holds the old and the new
	// labels of exactly those nodes, and is nil for an edit that rewrites
	// text alone, which no index artifact and no evaluator reads.  A shifting
	// script (insert, delete, replace) renumbers the survivors after the
	// splice, and index.Patch remaps an untouched label's artifacts on the
	// premise that none of its nodes lies inside a region; there Touched
	// therefore covers every label of either region.
	Touched []string
}

// Delta returns the uniform pre-index shift NewLen - OldLen applied to every
// survivor after the splice.
func (s *Script) Delta() int { return s.NewLen - s.OldLen }

// Diff computes a verified single-splice edit script from old to new, or
// ok=false when the difference between the trees does not reduce to one
// (callers then rebuild).  It runs in O(|old| + |new|) time: a common
// preorder prefix and suffix bound the splice, and one verification pass
// proves every precondition of the XASR shift rules — both regions are
// forests of consecutive siblings under one common parent that precedes the
// splice, and no surviving node is parented inside a region.
func Diff(oldT, newT *tree.Tree) (*Script, bool) {
	if oldT == nil || newT == nil {
		return nil, false
	}
	// The splice math identifies row i with NodeID i, the node with preorder
	// index i+1: tree.Builder numbers every tree that way.
	n, m := oldT.Len(), newT.Len()
	c := newComparer(oldT, newT)

	// Longest common prefix of the preorder node sequences: labels, text and
	// parent must all agree (parents of prefix nodes precede them, so the
	// prefix is structurally identical in both trees).
	p := 0
	for p < n && p < m {
		u := tree.NodeID(p)
		if !c.same(u, u) || oldT.Parent(u) != newT.Parent(u) {
			break
		}
		p++
	}
	if p == n && n == m {
		sc := &Script{Old: oldT, New: newT, Kind: KindNone, Start: n, ShapePreserving: true}
		return sc, true
	}

	// Shape-preserving fast path: same node count and identical parent
	// structure means the edit only renames labels or rewrites text.  The
	// XASR splice then degenerates to rewriting the lab column over the
	// mismatch interval — no shift, no structural change — so the
	// sibling-forest precondition of the general path is not needed (and a
	// root rename, which can never be a complete-subtree splice, still
	// patches instead of rebuilding).
	if n == m {
		structural := true
		for i := 0; i < n; i++ {
			if oldT.Parent(tree.NodeID(i)) != newT.Parent(tree.NodeID(i)) {
				structural = false
				break
			}
		}
		if structural {
			last := n - 1
			for last >= p && c.same(tree.NodeID(last), tree.NodeID(last)) {
				last--
			}
			sc := &Script{
				Old: oldT, New: newT, Kind: KindRelabel,
				Start: p, OldLen: last + 1 - p, NewLen: last + 1 - p,
				ShapePreserving: true,
			}
			sc.Touched = c.relabeled(p, sc.OldLen)
			return sc, true
		}
	}

	// Longest common suffix that does not overlap the prefix, by labels and
	// text; structural agreement is verified against the shift rule below.
	s := 0
	for s < n-p && s < m-p {
		if !c.same(tree.NodeID(n-1-s), tree.NodeID(m-1-s)) {
			break
		}
		s++
	}
	oldLen, newLen := n-p-s, m-p-s
	delta := newLen - oldLen

	// Suffix survivors must keep their parent up to the shift: a parent
	// before the splice is unchanged, a parent at or after the old region's
	// end shifts by delta, and a parent inside the region is impossible (the
	// regions must be complete subtree forests).
	for i := p + oldLen; i < n; i++ {
		po := oldT.Parent(tree.NodeID(i))
		pn := newT.Parent(tree.NodeID(i + delta))
		switch {
		case int(po) < p: // includes InvalidNode for the root
			if pn != po {
				return nil, false
			}
		case int(po) >= p+oldLen:
			if int(pn) != int(po)+delta {
				return nil, false
			}
		default:
			return nil, false
		}
	}

	// Each region must be a forest of consecutive sibling subtrees under one
	// common parent that precedes the splice.  Region-internal parents are
	// fine; a region-top-level node's parent must be before row p, and all
	// top-level nodes must share it.  (Consecutiveness is automatic: the
	// region is a contiguous preorder interval, so nothing can sit between
	// two of its top-level siblings.)
	parOld, okOld := regionParent(oldT, p, oldLen)
	if !okOld {
		return nil, false
	}
	parNew, okNew := regionParent(newT, p, newLen)
	if !okNew {
		return nil, false
	}
	if oldLen > 0 && newLen > 0 && parOld != parNew {
		return nil, false
	}

	sc := &Script{Old: oldT, New: newT, Start: p, OldLen: oldLen, NewLen: newLen}
	sc.Touched = c.regionLabels(p, oldLen, newLen)
	switch {
	case oldLen == 0 && newLen == 0:
		sc.Kind, sc.ShapePreserving = KindNone, true
	case oldLen == 0:
		sc.Kind = KindInsert
	case newLen == 0:
		sc.Kind = KindDelete
	default:
		// Never shape-preserving, even when oldLen == newLen: prefix and suffix
		// parents agree (checked above), so a region that kept every parent too
		// would have taken the shape-preserving path.
		sc.Kind = KindReplace
	}
	return sc, true
}

// comparer tests nodes of two trees for equal labels and text.  Labels are
// compared by code: directly when the second tree's dictionary extends the
// first's, as it does for a revision parsed against its predecessor's, and
// through a translation of the first tree's codes otherwise.
type comparer struct {
	a, b  *tree.Tree
	remap []tree.Code // nil: codes translate to themselves
}

func newComparer(a, b *tree.Tree) comparer {
	return comparer{a: a, b: b, remap: tree.Translate(a.Dict(), b.Dict())}
}

// sameLabels reports whether node u of a and node v of b carry the same
// labels in the same order.
func (c comparer) sameLabels(u, v tree.NodeID) bool {
	lu, lv := c.a.LabelCodes(u), c.b.LabelCodes(v)
	if len(lu) != len(lv) {
		return false
	}
	for i, code := range lu {
		if c.remap != nil {
			code = c.remap[code]
		}
		if code != lv[i] {
			return false
		}
	}
	return true
}

// same reports label-and-text equality of node u of a and node v of b.
func (c comparer) same(u, v tree.NodeID) bool {
	return c.sameLabels(u, v) && c.a.Text(u) == c.b.Text(v)
}

// regionParent verifies that rows [start, start+length) of t form a forest
// of complete sibling subtrees whose top-level nodes share one parent before
// row start, returning that parent (InvalidNode for an empty region or a
// region of root-level... the root itself).
func regionParent(t *tree.Tree, start, length int) (tree.NodeID, bool) {
	par := tree.NodeID(-2) // unset marker, distinct from InvalidNode
	for i := start; i < start+length; i++ {
		q := t.Parent(tree.NodeID(i))
		if int(q) >= start { // region-internal edge (parents precede children)
			continue
		}
		if par == -2 {
			par = q
		} else if par != q {
			return tree.InvalidNode, false
		}
	}
	if par == -2 {
		par = tree.InvalidNode
	}
	return par, true
}

// regionLabels collects the sorted distinct labels occurring on any node of
// either splice region: rows [start, start+oldLen) of a and [start,
// start+newLen) of b.
func (c comparer) regionLabels(start, oldLen, newLen int) []string {
	set := map[string]bool{}
	addLabels(set, c.a, start, start+oldLen)
	addLabels(set, c.b, start, start+newLen)
	return sortedLabels(set)
}

// addLabels adds to set the names of the labels of nodes [from, to) of t.
func addLabels(set map[string]bool, t *tree.Tree, from, to int) {
	d := t.Dict()
	for v := tree.NodeID(from); int(v) < to; v++ {
		for _, c := range t.LabelCodes(v) {
			set[d.Name(c)] = true
		}
	}
}

// relabeled collects the sorted distinct old and new labels of the nodes in
// rows [start, start+length) whose label list differs between the two trees,
// which must agree in shape over those rows.
func (c comparer) relabeled(start, length int) []string {
	var set map[string]bool
	for i := start; i < start+length; i++ {
		if c.sameLabels(tree.NodeID(i), tree.NodeID(i)) {
			continue
		}
		if set == nil {
			set = map[string]bool{}
		}
		addLabels(set, c.a, i, i+1)
		addLabels(set, c.b, i, i+1)
	}
	return sortedLabels(set)
}

func sortedLabels(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Canonical returns the full-fidelity pre-order-with-parentheses canonical
// form of a tree:
//
//	node := '(' { qlabel } [ '=' qtext ] { node } ')'
//
// where qlabel and qtext are Go-quoted strings.  Unlike tree.String (which
// drops text and cannot carry labels containing its own delimiters), the
// canonical form round-trips every tree exactly: ParseCanonical(Canonical(t))
// rebuilds a tree equal to t node for node, label for label, text for text.
func Canonical(t *tree.Tree) string {
	var sb strings.Builder
	writeCanonical(&sb, t, t.Root())
	return sb.String()
}

func writeCanonical(sb *strings.Builder, t *tree.Tree, n tree.NodeID) {
	sb.WriteByte('(')
	for _, c := range t.LabelCodes(n) {
		sb.WriteString(strconv.Quote(t.Dict().Name(c)))
	}
	if txt := t.Text(n); txt != "" {
		sb.WriteByte('=')
		sb.WriteString(strconv.Quote(txt))
	}
	for c := t.FirstChild(n); c != tree.InvalidNode; c = t.NextSibling(c) {
		writeCanonical(sb, t, c)
	}
	sb.WriteByte(')')
}

// ParseCanonical parses the Canonical syntax back into a tree.
func ParseCanonical(s string) (*tree.Tree, error) {
	p := &canonParser{input: s}
	b := tree.NewBuilder()
	p.skipSpace()
	if err := p.parseNode(b, tree.InvalidNode); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.input) {
		return nil, fmt.Errorf("treediff: trailing input at offset %d", p.pos)
	}
	return b.Build()
}

type canonParser struct {
	input string
	pos   int
	depth int
}

// maxCanonDepth bounds parser recursion so adversarial inputs (a long run of
// '(') fail fast instead of growing the stack proportionally to input size.
const maxCanonDepth = 1 << 16

func (p *canonParser) skipSpace() {
	for p.pos < len(p.input) {
		switch p.input[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *canonParser) quoted() (string, error) {
	q, err := strconv.QuotedPrefix(p.input[p.pos:])
	if err != nil {
		return "", fmt.Errorf("treediff: bad quoted string at offset %d", p.pos)
	}
	s, err := strconv.Unquote(q)
	if err != nil {
		return "", fmt.Errorf("treediff: bad quoted string at offset %d", p.pos)
	}
	p.pos += len(q)
	return s, nil
}

func (p *canonParser) parseNode(b *tree.Builder, parent tree.NodeID) error {
	if p.pos >= len(p.input) || p.input[p.pos] != '(' {
		return fmt.Errorf("treediff: expected '(' at offset %d", p.pos)
	}
	if p.depth++; p.depth > maxCanonDepth {
		return fmt.Errorf("treediff: tree deeper than %d", maxCanonDepth)
	}
	defer func() { p.depth-- }()
	p.pos++
	p.skipSpace()
	var labels []string
	for p.pos < len(p.input) && p.input[p.pos] == '"' {
		l, err := p.quoted()
		if err != nil {
			return err
		}
		labels = append(labels, l)
		p.skipSpace()
	}
	var id tree.NodeID
	if parent == tree.InvalidNode {
		id = b.AddRoot(labels...)
	} else {
		id = b.AddChild(parent, labels...)
	}
	if p.pos < len(p.input) && p.input[p.pos] == '=' {
		p.pos++
		p.skipSpace()
		txt, err := p.quoted()
		if err != nil {
			return err
		}
		if txt == "" {
			// Text "" is the no-text default; a quoted empty string would not
			// round-trip (Canonical omits it), so reject it for canonicity.
			return fmt.Errorf("treediff: empty text at offset %d", p.pos)
		}
		b.SetText(id, txt)
		p.skipSpace()
	}
	for p.pos < len(p.input) && p.input[p.pos] == '(' {
		if err := p.parseNode(b, id); err != nil {
			return err
		}
		p.skipSpace()
	}
	if p.pos >= len(p.input) || p.input[p.pos] != ')' {
		return fmt.Errorf("treediff: expected ')' at offset %d", p.pos)
	}
	p.pos++
	return nil
}

// Equal reports full node-for-node equality of two trees: same shape in
// document order, same labels, same text.
func Equal(a, b *tree.Tree) bool {
	if a.Len() != b.Len() {
		return false
	}
	c := newComparer(a, b)
	for v := range tree.NodeID(a.Len()) {
		if !c.same(v, v) || a.Parent(v) != b.Parent(v) {
			return false
		}
	}
	return true
}
