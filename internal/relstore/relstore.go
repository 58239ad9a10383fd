// Package relstore is a small in-memory relational engine: named relations
// of integer tuples with selection, projection, natural join, semijoin, and
// theta-joins (nested-loop and sort-merge).  It is the "relational storage
// scheme" substrate of Section 2 of the paper: the XASR encoding of trees
// lives in relations of this package and structural joins are expressed as
// theta-joins over it (Example 2.1), and Yannakakis' algorithm (Section 4)
// runs its semijoin program on relations of this package.
//
// Values are int64; string values (labels) are encoded through a Dict.
package relstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Tuple is one row of a relation.
type Tuple []int64

// Relation is a named relation with a fixed schema (column names) and a
// multiset of tuples.  Relations are value-like: operations return new
// relations and never mutate their inputs.
//
// A relation may additionally carry a columnar backing (see NewPairs and
// Column in columnar.go): cols[i] is column i as a dense []int64.  For
// columnar-built relations the row view is materialized lazily on first
// Tuples call; for row-built relations columns are extracted and memoized on
// first Column call.  colMu guards both directions.
type Relation struct {
	name    string
	columns []string
	tuples  []Tuple

	colMu    sync.Mutex
	cols     [][]int64
	columnar bool // built column-first; tuples is a lazy view
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(name string, columns ...string) *Relation {
	cols := make([]string, len(columns))
	copy(cols, columns)
	return &Relation{name: name, columns: cols}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Columns returns the column names.  The slice must not be modified.
func (r *Relation) Columns() []string { return r.columns }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.columns) }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	if r.columnar {
		return len(r.cols[0])
	}
	return len(r.tuples)
}

// Tuples returns the tuples.  The slice must not be modified.  For
// columnar-built relations the row view is materialized (once) on first call;
// prefer IntColumns on the hot paths to avoid it entirely.
func (r *Relation) Tuples() []Tuple {
	if !r.columnar {
		return r.tuples
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.tuples == nil && len(r.cols[0]) > 0 {
		r.materializeRows()
	}
	return r.tuples
}

// ColumnIndex returns the index of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	for i, c := range r.columns {
		if c == name {
			return i
		}
	}
	return -1
}

// Insert appends a tuple; the tuple's length must match the arity.
// Columnar relations are append-only through AppendPair; Insert panics on
// them.
func (r *Relation) Insert(t ...int64) {
	if r.columnar {
		panic(fmt.Sprintf("relstore: Insert into columnar relation %s (use AppendPair)", r.name))
	}
	if len(t) != len(r.columns) {
		panic(fmt.Sprintf("relstore: insert of arity %d into %s(%s)", len(t), r.name, strings.Join(r.columns, ",")))
	}
	row := make(Tuple, len(t))
	copy(row, t)
	r.tuples = append(r.tuples, row)
}

// InsertRow appends an existing tuple without copying it.  The relation
// shares the row with the caller, so the tuple must never be mutated
// afterwards; use Insert when the source is scratch space.
func (r *Relation) InsertRow(t Tuple) {
	if r.columnar {
		panic(fmt.Sprintf("relstore: InsertRow into columnar relation %s (use AppendPair)", r.name))
	}
	if len(t) != len(r.columns) {
		panic(fmt.Sprintf("relstore: insert of arity %d into %s(%s)", len(t), r.name, strings.Join(r.columns, ",")))
	}
	r.tuples = append(r.tuples, t)
}

// Clone returns a deep copy of the relation, optionally renamed.
func (r *Relation) Clone(newName string) *Relation {
	if newName == "" {
		newName = r.name
	}
	out := NewRelation(newName, r.columns...)
	src := r.Tuples()
	out.tuples = make([]Tuple, len(src))
	for i, t := range src {
		row := make(Tuple, len(t))
		copy(row, t)
		out.tuples[i] = row
	}
	return out
}

// Select returns the tuples satisfying pred.
func (r *Relation) Select(name string, pred func(Tuple) bool) *Relation {
	out := NewRelation(name, r.columns...)
	for _, t := range r.Tuples() {
		if pred(t) {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// SelectEq returns the tuples whose named column equals v.
func (r *Relation) SelectEq(name, column string, v int64) *Relation {
	i := r.mustColumn(column)
	return r.Select(name, func(t Tuple) bool { return t[i] == v })
}

// Project returns the projection onto the named columns (duplicates kept;
// call Distinct to eliminate them).
func (r *Relation) Project(name string, columns ...string) *Relation {
	idx := make([]int, len(columns))
	for i, c := range columns {
		idx[i] = r.mustColumn(c)
	}
	out := NewRelation(name, columns...)
	for _, t := range r.Tuples() {
		row := make(Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out.tuples = append(out.tuples, row)
	}
	return out
}

// Distinct returns the relation with duplicate tuples removed.
func (r *Relation) Distinct(name string) *Relation {
	out := NewRelation(name, r.columns...)
	seen := map[string]bool{}
	for _, t := range r.Tuples() {
		k := tupleKey(t)
		if !seen[k] {
			seen[k] = true
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// Union returns the union (as multisets) of r and s, which must have the
// same arity; column names of r are kept.
func (r *Relation) Union(name string, s *Relation) *Relation {
	if r.Arity() != s.Arity() {
		panic("relstore: union of different arities")
	}
	out := r.Clone(name)
	out.tuples = append(out.tuples, s.Tuples()...)
	return out
}

// NaturalJoin joins r and s on all shared column names using a hash join;
// output columns are r's columns followed by s's non-shared columns.
func (r *Relation) NaturalJoin(name string, s *Relation) *Relation {
	shared, rIdx, sIdx := sharedColumns(r, s)
	var sExtraCols []string
	var sExtraIdx []int
	for i, c := range s.columns {
		if _, ok := shared[c]; !ok {
			sExtraCols = append(sExtraCols, c)
			sExtraIdx = append(sExtraIdx, i)
		}
	}
	out := NewRelation(name, append(append([]string{}, r.columns...), sExtraCols...)...)

	// Build hash table on s keyed by the shared columns.
	ht := map[string][]Tuple{}
	for _, t := range s.Tuples() {
		ht[keyOf(t, sIdx)] = append(ht[keyOf(t, sIdx)], t)
	}
	for _, t := range r.Tuples() {
		for _, u := range ht[keyOf(t, rIdx)] {
			row := make(Tuple, 0, out.Arity())
			row = append(row, t...)
			for _, j := range sExtraIdx {
				row = append(row, u[j])
			}
			out.tuples = append(out.tuples, row)
		}
	}
	return out
}

// SemiJoin returns the tuples of r that join with at least one tuple of s on
// the shared columns (r ⋉ s).  This is the primitive of Yannakakis' full
// reducer: the result is always a subset of r, never larger than the input.
func (r *Relation) SemiJoin(name string, s *Relation) *Relation {
	_, rIdx, sIdx := sharedColumns(r, s)
	if len(rIdx) == 0 {
		// No shared columns: r ⋉ s is r if s nonempty, else empty.
		if s.Len() > 0 {
			return r.Clone(name)
		}
		return NewRelation(name, r.columns...)
	}
	ht := map[string]bool{}
	for _, t := range s.Tuples() {
		ht[keyOf(t, sIdx)] = true
	}
	out := NewRelation(name, r.columns...)
	for _, t := range r.Tuples() {
		if ht[keyOf(t, rIdx)] {
			out.tuples = append(out.tuples, t)
		}
	}
	return out
}

// ThetaJoinNestedLoop joins r and s keeping the pairs that satisfy pred;
// output columns are r's columns followed by s's columns (prefixed with the
// relation name if a name collision would occur).  Quadratic; this is the
// ablation baseline for structural joins.
func (r *Relation) ThetaJoinNestedLoop(name string, s *Relation, pred func(a, b Tuple) bool) *Relation {
	out := NewRelation(name, joinedColumns(r, s)...)
	for _, a := range r.Tuples() {
		for _, b := range s.Tuples() {
			if pred(a, b) {
				row := make(Tuple, 0, len(a)+len(b))
				row = append(row, a...)
				row = append(row, b...)
				out.tuples = append(out.tuples, row)
			}
		}
	}
	return out
}

// IntervalJoinMerge computes the structural join
//
//	{ (a, b) : a.lo < b.lo AND b.hi < a.hi }
//
// ("the interval of a strictly encloses the interval of b") between r and s
// by sorting both sides on lo and sweeping — the stack-based structural join
// of Al-Khalifa et al. that Section 2 refers to.  The intervals must come
// from a tree, i.e. form a laminar family: any two either nest or are
// disjoint.  This holds both for the (pre, post) index pairs of an XASR and
// for region (start, end) encodings; for the descendant axis callers pass
// loCol/hiCol = pre/post of the ancestor side and pointLoCol/pointHiCol =
// pre/post of the descendant side (see package labeling).
//
// The output columns are r's followed by s's, as in ThetaJoinNestedLoop.
// Cost is O(n log n + output) instead of the nested-loop join's O(n^2).
func (r *Relation) IntervalJoinMerge(name string, loCol, hiCol string, s *Relation, pointLoCol, pointHiCol string) *Relation {
	lo := r.mustColumn(loCol)
	hi := r.mustColumn(hiCol)
	plo := s.mustColumn(pointLoCol)
	phi := s.mustColumn(pointHiCol)

	rt, st := r.Tuples(), s.Tuples()
	anc := slices.Clone(rt)
	sort.Slice(anc, func(i, j int) bool { return anc[i][lo] < anc[j][lo] })
	des := slices.Clone(st)
	sort.Slice(des, func(i, j int) bool { return des[i][plo] < des[j][plo] })

	out := NewRelation(name, joinedColumns(r, s)...)
	// Output rows are carved from arena chunks: one allocation per
	// arenaChunkRows pairs instead of one per pair.
	ar := tupleArena{arity: out.Arity()}
	// Sweep the inner side in lo (document) order, maintaining the set of
	// outer-side candidates that still enclose the current position.  Because
	// the intervals come from a tree (they form a laminar family), a candidate
	// a with a.hi < d.hi lies entirely before d in document order and can
	// never enclose any later d', so discarding it is safe.
	var open []Tuple
	ai := 0
	for _, d := range des {
		// Admit candidates starting before d.
		for ai < len(anc) && anc[ai][lo] < d[plo] {
			open = append(open, anc[ai])
			ai++
		}
		// Retire candidates whose interval closed before d's.
		keep := open[:0]
		for _, a := range open {
			if d[phi] < a[hi] {
				keep = append(keep, a)
			}
		}
		open = keep
		// Every remaining candidate encloses d: a.lo < d.lo and d.hi < a.hi.
		for _, a := range open {
			row := ar.row()
			copy(row, a)
			copy(row[len(a):], d)
			out.tuples = append(out.tuples, row)
		}
	}
	return out
}

// String renders the relation as an aligned ASCII table (used by
// cmd/paperrepro to print the XASR of Figure 2).
func (r *Relation) String() string {
	var sb strings.Builder
	tuples := r.Tuples()
	fmt.Fprintf(&sb, "%s(%s), %d tuples\n", r.name, strings.Join(r.columns, ", "), len(tuples))
	widths := make([]int, len(r.columns))
	for i, c := range r.columns {
		widths[i] = len(c)
	}
	rows := make([][]string, len(tuples))
	for ti, t := range tuples {
		rows[ti] = make([]string, len(t))
		for i, v := range t {
			rows[ti][i] = fmt.Sprintf("%d", v)
			if len(rows[ti][i]) > widths[i] {
				widths[i] = len(rows[ti][i])
			}
		}
	}
	for i, c := range r.columns {
		fmt.Fprintf(&sb, "%-*s ", widths[i], c)
		_ = i
	}
	sb.WriteString("\n")
	for _, row := range rows {
		for i, v := range row {
			fmt.Fprintf(&sb, "%-*s ", widths[i], v)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func (r *Relation) mustColumn(name string) int {
	i := r.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relstore: relation %s has no column %q (have %v)", r.name, name, r.columns))
	}
	return i
}

func sharedColumns(r, s *Relation) (shared map[string]bool, rIdx, sIdx []int) {
	shared = map[string]bool{}
	for _, c := range r.columns {
		if s.ColumnIndex(c) >= 0 {
			shared[c] = true
		}
	}
	// Deterministic order: r's column order.
	for i, c := range r.columns {
		if shared[c] {
			rIdx = append(rIdx, i)
			sIdx = append(sIdx, s.ColumnIndex(c))
		}
	}
	return shared, rIdx, sIdx
}

func joinedColumns(r, s *Relation) []string {
	out := append([]string{}, r.columns...)
	for _, c := range s.columns {
		if r.ColumnIndex(c) >= 0 {
			out = append(out, s.name+"."+c)
		} else {
			out = append(out, c)
		}
	}
	return out
}

func keyOf(t Tuple, idx []int) string {
	var sb strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&sb, "%d|", t[i])
	}
	return sb.String()
}

func tupleKey(t Tuple) string {
	var sb strings.Builder
	for _, v := range t {
		fmt.Fprintf(&sb, "%d|", v)
	}
	return sb.String()
}

// Dict maps strings to dense int64 codes and back; used to store labels in
// relations.
type Dict struct {
	toCode map[string]int64
	toStr  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{toCode: map[string]int64{}} }

// Code returns the code for s, allocating one if needed.
func (d *Dict) Code(s string) int64 {
	if c, ok := d.toCode[s]; ok {
		return c
	}
	c := int64(len(d.toStr))
	d.toCode[s] = c
	d.toStr = append(d.toStr, s)
	return c
}

// Lookup returns the code for s and whether it is known.
func (d *Dict) Lookup(s string) (int64, bool) {
	c, ok := d.toCode[s]
	return c, ok
}

// String returns the string for code c ("" if unknown).
func (d *Dict) String(c int64) string {
	if c < 0 || int(c) >= len(d.toStr) {
		return ""
	}
	return d.toStr[c]
}

// Len returns the number of distinct strings in the dictionary.
func (d *Dict) Len() int { return len(d.toStr) }

// Clone returns an independent copy of the dictionary: codes assigned so far
// are preserved, and new Code calls on the clone do not mutate the original.
// Dict is unsynchronized, so a shared dictionary must be cloned before any
// writer extends it while readers of the original are still live.
func (d *Dict) Clone() *Dict {
	out := &Dict{
		toCode: make(map[string]int64, len(d.toCode)),
		toStr:  append([]string(nil), d.toStr...),
	}
	for s, c := range d.toCode {
		out.toCode[s] = c
	}
	return out
}
