package tree

import (
	"hash/maphash"
	"slices"
)

// Code is a label's integer code in a Dict: the tree stores codes, so the
// labels of Section 2 are drawn from the alphabet of the integers, and a
// label test is one integer comparison.
type Code int32

// NoCode is the code of a name that a Dict does not hold.  No node carries
// it, so a query label that resolves to NoCode selects nothing.
const NoCode Code = -1

// seed is the hash seed of every Dict in the process: a table copied from
// one dictionary stays valid in the copy.
var seed = maphash.MakeSeed()

// Dict numbers label names densely from 0.  A Dict is immutable once a tree
// built on it has been returned: a Builder that inherits it (NewBuilderDict)
// shares it until the first name it lacks arrives, and then copies it, so
// readers of the older tree never see a write.  Codes only ever grow by
// appending, so a Dict that extends another gives every name of the other
// the same code.
//
// The dictionary holds no pointer per name: the names are one string behind
// end offsets, and an open-addressed table of codes, keyed by the names'
// hashes, finds a name's code.  A copy shares the string and copies the
// offsets and the table.
type Dict struct {
	// names holds the committed names back to back; name c is
	// names[end[c-1]:end[c]] (from 0 for c = 0).
	names string
	end   []int32
	// table holds code+1 per slot, 0 for an empty slot, with linear probing
	// from a name's hash; its length is a power of two, at most half used.
	table []int32
	// tail holds the names an open Builder added since the last commit: an
	// end offset past len(names) addresses names+tail.
	tail []byte
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{} }

// Len returns the number of names in the dictionary.
func (d *Dict) Len() int { return len(d.end) }

// span returns the offsets of name c in names+tail.
func (d *Dict) span(c Code) (start, end int) {
	if c > 0 {
		start = int(d.end[c-1])
	}
	return start, int(d.end[c])
}

// Name returns the name of code c.
func (d *Dict) Name(c Code) string {
	s, e := d.span(c)
	if n := len(d.names); e > n {
		return string(d.tail[s-n : e-n]) // added by an open Builder
	}
	return d.names[s:e]
}

// Code returns the code of name, or NoCode.
func (d *Dict) Code(name string) Code { return lookup(d, maphash.String(seed, name), name) }

// Codes returns the codes of names, NoCode for each name d lacks.
func (d *Dict) Codes(names []string) []Code {
	out := make([]Code, len(names))
	for i, name := range names {
		out[i] = d.Code(name)
	}
	return out
}

// lookup returns the code of name, whose hash is h, or NoCode.
func lookup[S string | []byte](d *Dict, h uint64, name S) Code {
	if len(d.table) == 0 {
		return NoCode
	}
	mask := uint64(len(d.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		c := Code(d.table[i] - 1)
		if c == NoCode {
			return NoCode
		}
		if named(d, c, name) {
			return c
		}
	}
}

// named reports whether code c of d names name.
func named[S string | []byte](d *Dict, c Code, name S) bool {
	if c < 0 || int(c) >= len(d.end) {
		return false
	}
	s, e := d.span(c)
	if e-s != len(name) {
		return false
	}
	n := len(d.names)
	if e <= n {
		return d.names[s:e] == string(name)
	}
	return string(d.tail[s-n:e-n]) == string(name)
}

// Extends reports whether every name of old has the same code in d: d is old
// itself, or a copy of it that only appended names.  Both are committed.
func (d *Dict) Extends(old *Dict) bool {
	if d == old {
		return true
	}
	n := len(old.end)
	return len(d.end) >= n && slices.Equal(d.end[:n], old.end) &&
		d.names[:len(old.names)] == old.names
}

// Translate returns the codes in to of the names of from, one per code of
// from (NoCode for a name to lacks), or nil when to extends from and every
// code therefore translates to itself.
func Translate(from, to *Dict) []Code {
	if to.Extends(from) {
		return nil
	}
	out := make([]Code, from.Len())
	for c := range out {
		out[c] = to.Code(from.Name(Code(c)))
	}
	return out
}

// clone returns a private copy of d with room for more names.  It shares the
// names string.
func (d *Dict) clone() *Dict {
	n := len(d.end)
	end := make([]int32, n, n+n/4+8)
	copy(end, d.end)
	return &Dict{names: d.names, end: end, table: slices.Clone(d.table)}
}

// tableSize returns the table length for n names: a power of two, at least
// twice n.
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// add appends name, whose hash is h and which d does not hold, to the tail,
// and returns its code.
func add[S string | []byte](d *Dict, h uint64, name S) Code {
	c := Code(len(d.end))
	d.tail = append(d.tail, name...)
	d.end = append(d.end, int32(len(d.names)+len(d.tail)))
	if 2*len(d.end) > len(d.table) {
		d.rehash(tableSize(len(d.end)))
	} else {
		d.place(h, c)
	}
	return c
}

// place puts code c, whose name hashes to h, in the first free slot of its
// probe sequence.
func (d *Dict) place(h uint64, c Code) {
	mask := uint64(len(d.table) - 1)
	i := h & mask
	for d.table[i] != 0 {
		i = (i + 1) & mask
	}
	d.table[i] = int32(c) + 1
}

// rehash rebuilds the table at the given size.
func (d *Dict) rehash(size int) {
	d.table = make([]int32, size)
	n := len(d.names)
	for c := range Code(len(d.end)) {
		s, e := d.span(c)
		if e <= n {
			d.place(maphash.String(seed, d.names[s:e]), c)
		} else {
			d.place(maphash.Bytes(seed, d.tail[s-n:e-n]), c)
		}
	}
}

// commit moves the tail into the names string with one append.
func (d *Dict) commit() {
	if len(d.tail) > 0 {
		d.names += string(d.tail)
		d.tail = nil
	}
}
