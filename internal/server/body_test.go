package server

import (
	"strings"
	"testing"
	"unsafe"
)

// within reports whether sub's bytes lie inside s's.
func within(sub, s string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(sub))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= lo && p+uintptr(len(sub)) <= lo+uintptr(len(s))
}

// TestDecodedStringsShareTheBody: the string fields of an ordinary body are
// substrings of it, while a field of a body padded far past it is copied out,
// so whatever keeps the field (the plan cache's key) does not keep the body.
func TestDecodedStringsShareTheBody(t *testing.T) {
	body := `{"doc":"doc.xml","lang":"xpath","query":"//item//keyword"}`
	var q queryRequest
	if err := q.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	if !within(q.Doc, body) || !within(q.Lang, body) || !within(q.Query, body) {
		t.Error("the fields of a small body are not substrings of it")
	}
	padded := `{"lang":"xpath","query":"//item//keyword"` + strings.Repeat(" ", 4*maxBodySlack) + "}"
	var c corpusQueryRequest
	if err := c.unmarshal(padded); err != nil {
		t.Fatal(err)
	}
	if c.Query != "//item//keyword" || within(c.Query, padded) || within(c.Lang, padded) {
		t.Errorf("query %q of a padded body still points into it", c.Query)
	}
}
