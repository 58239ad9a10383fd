package relstore

import "fmt"

// This file adds the columnar storage layer used by the structural-join hot
// path: pair relations built column-at-a-time (NewPairs/AppendPair), dense
// memoized column extraction for any relation (Column/IntColumns), a chunked
// tuple arena that carves output rows out of large backing slices.

// NewPairs returns an empty 2-column relation with columnar backing: rows are
// appended with AppendPair into two dense []int64 columns, consumers stream
// them through IntColumns, and the row-oriented Tuples view is materialized
// lazily (through an arena) only if some caller still asks for it.  A
// columnar relation must be fully built before it is shared; Insert and
// InsertRow panic on it.
func NewPairs(name, c1, c2 string) *Relation {
	return &Relation{
		name:     name,
		columns:  []string{c1, c2},
		cols:     [][]int64{nil, nil},
		columnar: true,
	}
}

// AppendPair appends one row to a columnar pair relation.
func (r *Relation) AppendPair(a, b int64) {
	if !r.columnar || len(r.cols) != 2 {
		panic(fmt.Sprintf("relstore: AppendPair on non-columnar relation %s", r.name))
	}
	r.cols[0] = append(r.cols[0], a)
	r.cols[1] = append(r.cols[1], b)
}

// Column returns column i as a dense []int64, extracting and memoizing it on
// first call (columnar relations have their columns ready).  The returned
// slice is shared and must be treated as read-only.  Safe for concurrent
// readers of a fully-built relation.
func (r *Relation) Column(i int) []int64 {
	if i < 0 || i >= len(r.columns) {
		panic(fmt.Sprintf("relstore: relation %s has no column %d", r.name, i))
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	if r.cols == nil {
		r.cols = make([][]int64, len(r.columns))
	}
	if r.cols[i] == nil {
		col := make([]int64, len(r.tuples))
		for k, t := range r.tuples {
			col[k] = t[i]
		}
		r.cols[i] = col
	}
	return r.cols[i]
}

// IntColumns returns columns i and j as dense slices (see Column), with
// ok=false when either index is out of range.  It is the accessor the
// structural joins use to sweep XASR columns without touching per-row tuple
// headers.
func (r *Relation) IntColumns(i, j int) ([]int64, []int64, bool) {
	if i < 0 || j < 0 || i >= len(r.columns) || j >= len(r.columns) {
		return nil, nil, false
	}
	return r.Column(i), r.Column(j), true
}

// arenaChunkRows is the number of rows carved per arena chunk.
const arenaChunkRows = 512

// tupleArena hands out fixed-arity rows carved from large backing slices, so
// building an n-row relation costs O(n/arenaChunkRows) allocations instead of
// one per row.  Chunks are owned by the rows they back (they are shared into
// relations), so the arena is NOT pooled — it just batches allocations.
type tupleArena struct {
	arity int
	chunk []int64
}

func (a *tupleArena) row() Tuple {
	if len(a.chunk) < a.arity {
		a.chunk = make([]int64, a.arity*arenaChunkRows)
	}
	row := a.chunk[:a.arity:a.arity]
	a.chunk = a.chunk[a.arity:]
	return row
}

// materializeRows builds the row view of a columnar relation.  Caller holds
// colMu.
func (r *Relation) materializeRows() {
	n := len(r.cols[0])
	ar := tupleArena{arity: len(r.columns)}
	rows := make([]Tuple, n)
	for k := 0; k < n; k++ {
		row := ar.row()
		for ci := range r.cols {
			row[ci] = r.cols[ci][k]
		}
		rows[k] = row
	}
	r.tuples = rows
}
