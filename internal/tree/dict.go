package tree

import "maps"

// Code is a label's integer code in a Dict: the tree stores codes, so the
// labels of Section 2 are drawn from the alphabet of the integers, and a
// label test is one integer comparison.
type Code int32

// NoCode is the code of a name that a Dict does not hold.  No node carries
// it, so a query label that resolves to NoCode selects nothing.
const NoCode Code = -1

// Dict numbers label names densely from 0.  A Dict is immutable once a tree
// built on it has been returned: a Builder that inherits it (NewBuilderDict)
// shares it until the first name it lacks arrives, and then copies it, so
// readers of the older tree never see a write.  Codes only ever grow by
// appending, so a Dict that extends another gives every name of the other
// the same code.
type Dict struct {
	names []string
	codes map[string]Code
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{codes: map[string]Code{}} }

// Len returns the number of names in the dictionary.
func (d *Dict) Len() int { return len(d.names) }

// Name returns the name of code c.
func (d *Dict) Name(c Code) string { return d.names[c] }

// Code returns the code of name, or NoCode.
func (d *Dict) Code(name string) Code {
	if c, ok := d.codes[name]; ok {
		return c
	}
	return NoCode
}

// Codes returns the codes of names, NoCode for each name d lacks.
func (d *Dict) Codes(names []string) []Code {
	out := make([]Code, len(names))
	for i, name := range names {
		out[i] = d.Code(name)
	}
	return out
}

// Extends reports whether every name of old has the same code in d: d is old
// itself, or a copy of it that only appended names.
func (d *Dict) Extends(old *Dict) bool {
	if d == old {
		return true
	}
	if len(d.names) < len(old.names) {
		return false
	}
	for c, name := range old.names {
		if d.names[c] != name {
			return false
		}
	}
	return true
}

// Translate returns the codes in to of the names of from, one per code of
// from (NoCode for a name to lacks), or nil when to extends from and every
// code therefore translates to itself.
func Translate(from, to *Dict) []Code {
	if to.Extends(from) {
		return nil
	}
	out := make([]Code, len(from.names))
	for c, name := range from.names {
		out[c] = to.Code(name)
	}
	return out
}

// clone returns a private copy of d with room for more names.
func (d *Dict) clone() *Dict {
	names := make([]string, len(d.names), len(d.names)+len(d.names)/4+8)
	copy(names, d.names)
	codes := make(map[string]Code, len(names)+len(names)/4+8)
	maps.Copy(codes, d.codes)
	return &Dict{names: names, codes: codes}
}

// add appends a name d does not hold and returns its code.
func (d *Dict) add(name string) Code {
	c := Code(len(d.names))
	d.names = append(d.names, name)
	d.codes[name] = c
	return c
}
