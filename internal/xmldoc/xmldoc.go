// Package xmldoc provides a small, dependency-free XML subset parser and
// serializer that turns documents into the unranked ordered labeled trees of
// package tree, plus a SAX-style event stream used by the streaming
// evaluator (internal/stream).
//
// The supported subset covers what the paper's data model needs: elements,
// attributes (stored as extra labels of the form "@name=value" and as node
// text), character data, comments, processing instructions (skipped), and an
// optional XML declaration.  Namespaces are treated literally (prefix kept in
// the tag name); DTDs and entities other than the five predefined ones are
// not supported.
package xmldoc

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/tree"
)

// EventKind discriminates the events of the SAX-style stream.
type EventKind int

const (
	// StartElement is emitted for an opening tag (or the opening half of a
	// self-closing tag).
	StartElement EventKind = iota
	// EndElement is emitted for a closing tag (or the closing half of a
	// self-closing tag).
	EndElement
	// Text is emitted for non-whitespace character data.
	Text
)

// String returns a readable name for the event kind.
func (k EventKind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Attr is an attribute of an element.
type Attr struct {
	Name  string
	Value string
}

// Event is one element of the SAX-style document stream.
type Event struct {
	Kind  EventKind
	Name  string // element name for Start/EndElement
	Text  string // character data for Text events
	Attrs []Attr // attributes for StartElement events
}

// MaxDepth is the deepest element nesting the scanner accepts, a root
// element being at depth 1: the limit encoding/xml's Unmarshal keeps.  It
// bounds the stack of open elements and every recursion over a parsed tree.
const MaxDepth = 10000

// ErrTooDeep is wrapped by the error of a document nested deeper than
// MaxDepth.
var ErrTooDeep = errors.New("xmldoc: document nests too deep")

// SyntaxError describes a parse failure with its byte offset.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmldoc: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses an XML document from src and returns the corresponding tree.
// Element names become node labels; each attribute name=value additionally
// becomes a label "@name=value" (so Core XPath label tests can address
// attributes); character data is concatenated into the node text.
//
// Parse is one left-to-right scan that writes the tree's final preorder
// columns as it reads, through a tree.Preorder: a node's parent, depth and
// left sibling when its tag opens, its size when the tag closes, its labels
// as codes and its text into the tree's one text string on arrival.  The
// tree holds no reference to src.  A document nested deeper than MaxDepth
// is refused with ErrTooDeep.
func Parse(src string) (*tree.Tree, error) { return ParseDict(src, nil) }

// ParseDict is Parse against the label dictionary d of an earlier tree —
// usually tree.NextDict of the document's previous version — so that labels
// the earlier tree knew keep their codes and parsing them allocates nothing.
// d itself is never written: the first new label copies it.  A nil d starts a
// fresh dictionary.
//
// The tree is sized from two byte counts, which bound the document's
// elements and labels and meet them on a typical document: an element
// closes with exactly one '/', in its end tag or in the "/>" of a
// self-closing tag, and a label is an element name or an attribute, which
// has exactly one '='.  The text starts at an eighth of src (a site
// document's text is about a twelfth of it) and grows by doubling beyond.
func ParseDict(src string, d *tree.Dict) (*tree.Tree, error) {
	var t scanner
	nodes := strings.Count(src, "/")
	t.b.Init(d, nodes, nodes+strings.Count(src, "="), len(src)/8)
	if err := t.run(src); err != nil {
		return nil, err
	}
	return t.b.Build()
}

// MustParse is like Parse but panics on error; for tests and examples.
func MustParse(src string) *tree.Tree {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// FromEvents builds a tree from a well-formed event stream, through the same
// preorder constructor as Parse.
func FromEvents(events []Event) (*tree.Tree, error) {
	nodes, labels, text := 0, 0, 0
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case StartElement:
			nodes++
			labels += 1 + len(ev.Attrs)
		case Text:
			text += len(ev.Text)
		}
	}
	var b tree.Preorder
	b.Init(nil, nodes, labels, text)
	var buf []byte
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case StartElement:
			if !b.Open() && b.Len() > 0 {
				return nil, &SyntaxError{Offset: i, Msg: "multiple root elements"}
			}
			b.Start(b.Code(ev.Name))
			for _, a := range ev.Attrs {
				buf = attrLabel(buf, a.Name, a.Value)
				b.AddCode(b.CodeBytes(buf))
			}
		case EndElement:
			if !b.Open() {
				return nil, &SyntaxError{Offset: i, Msg: "unmatched end element " + ev.Name}
			}
			b.End()
		case Text:
			if !b.Open() {
				return nil, &SyntaxError{Offset: i, Msg: "character data outside the root element"}
			}
			b.AppendText(ev.Text)
		}
	}
	if b.Open() {
		return nil, &SyntaxError{Offset: len(events), Msg: "unclosed elements at end of document"}
	}
	return b.Build()
}

// attrLabel returns buf[:0] holding the label "@name=value".
func attrLabel(buf []byte, name, value string) []byte {
	buf = append(buf[:0], '@')
	buf = append(buf, name...)
	buf = append(buf, '=')
	return append(buf, value...)
}

// Tokenize scans src and returns the SAX-style event stream.  It validates
// well-formedness of tag nesting (every EndElement matches the innermost
// open StartElement).
func Tokenize(src string) ([]Event, error) {
	t := scanner{events: []Event{}}
	if err := t.run(src); err != nil {
		return nil, err
	}
	return t.events, nil
}

// scanner is the one XML scanner: it checks well-formedness and hands the
// document, in document order, to the tree under construction — or, when
// events is not nil, appends it to the event stream instead.  By the time
// it hands anything over it has checked that start and end tags nest, that
// text lies inside an open element, and that there is exactly one root.
//
// The scan methods take the offset they start at and return the offset
// after what they scanned.
type scanner struct {
	src      string
	stack    []span   // names of the open elements, as spans of src
	stackBuf [32]span // backs stack until a document nests deeper
	rootSeen bool

	events []Event // the Tokenize stream; nil on the tree path

	// The tree path.  buf is scratch for an attribute label or an unescaped
	// text run, backed by bufBuf until one runs longer.
	b      tree.Preorder
	buf    []byte
	bufBuf [64]byte
	// names is a direct-mapped cache of the element names coded last, by
	// their first three bytes: a hit costs one short string comparison
	// instead of scanning the name and looking it up in the dictionary, and
	// a collision only costs the scan and the lookup.
	names [256]nameSlot
}

// nameSlot is one entry of the names cache: a name, where the scanner met it
// last, and its code.  An empty span is an empty slot.
type nameSlot struct {
	span
	code tree.Code
}

// span is the substring src[start:end] of the scanned document, so the
// stack of open names holds no pointer for the collector to trace.  word
// holds the substring's first eight bytes (prefix): comparing a name of up
// to eight bytes with it is one load and one comparison.
type span struct {
	start, end int
	word       uint64
}

// prefix returns the first eight bytes of s as a little-endian integer,
// zero beyond the end of a shorter s.
func prefix(s string) uint64 {
	if len(s) >= 8 {
		return load8(s)
	}
	var w uint64
	for i := len(s) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	return w
}

// load8 returns the first eight bytes of s, which has at least eight, as a
// little-endian integer: one load.
func load8(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// lowBytes[n] masks the first n bytes of a little-endian word.
var lowBytes = [9]uint64{0, 1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1, 1<<40 - 1, 1<<48 - 1, 1<<56 - 1, ^uint64(0)}

// at reports whether the name sp spans starts src[pos:].
func (t *scanner) at(pos int, sp span) bool {
	n, src := sp.end-sp.start, t.src
	if pos+8 > len(src) {
		return strings.HasPrefix(src[pos:], src[sp.start:sp.end])
	}
	w := load8(src[pos:])
	if n <= 8 {
		return w&lowBytes[n] == sp.word
	}
	return w == sp.word && pos+n <= len(src) && src[pos+8:pos+n] == src[sp.start+8:sp.end]
}

// run scans src.
func (t *scanner) run(src string) error {
	t.src = src
	t.stack, t.buf = t.stackBuf[:0], t.bufBuf[:0]
	pos := 0
	for pos < len(src) {
		var err error
		switch {
		case src[pos] != '<':
			pos, err = t.scanText(pos)
		case pos+1 < len(src) && src[pos+1] == '/':
			// The common end tag: the open name and '>'.
			if n := len(t.stack); n > 0 {
				top := t.stack[n-1]
				if end := pos + 2 + top.end - top.start; end < len(src) && src[end] == '>' && t.at(pos+2, top) {
					t.stack = t.stack[:n-1]
					t.end(src[top.start:top.end])
					pos = end + 1
					continue
				}
			}
			pos, err = t.scanEndTag(pos + 2)
		case pos+1 < len(src) && (src[pos+1] == '!' || src[pos+1] == '?'):
			pos, err = t.scanDecl(pos)
		default:
			// The common start tag, on the tree path: a cached name below
			// the root and the depth bound.
			if n := len(t.stack); n > 0 && n < MaxDepth && t.events == nil {
				if open := t.cached(pos + 1); open.end != pos+1 {
					if open.end < len(src) && src[open.end] == '>' {
						t.stack = append(t.stack, open)
						pos = open.end + 1
						continue
					}
					pos, err = t.scanAttrs(open)
					break
				}
			}
			pos, err = t.scanStartTag(pos + 1)
		}
		if err != nil {
			return err
		}
	}
	if len(t.stack) != 0 {
		return t.errAt(pos, "unclosed element <%s>", t.open())
	}
	if !t.rootSeen {
		return t.errAt(pos, "document has no root element")
	}
	return nil
}

// start opens the element whose name is src[start:end], whose attributes
// follow one attr call each.
func (t *scanner) start(start, end int) {
	name := t.src[start:end]
	if t.events != nil {
		t.events = append(t.events, Event{Kind: StartElement, Name: name})
		return
	}
	code := t.b.Code(name)
	if start+8 <= len(t.src) {
		t.names[slotOf(load8(t.src[start:]))] = nameSlot{span{start, end, prefix(name)}, code}
	}
	t.b.Start(code)
}

// slotOf returns the slot of the names cache for the name that starts where
// src reads w, its next eight bytes: the first three pick it.
func slotOf(w uint64) uint8 { return uint8((uint32(w&(1<<24-1)) * 0x9E3779B1) >> 24) }

// cached opens the element whose name starts src[pos:] when the names cache
// holds that name, and returns the name's span; its end is pos when the
// cache does not hold it.
func (t *scanner) cached(pos int) span {
	src := t.src
	if pos+8 > len(src) {
		return span{start: pos, end: pos}
	}
	slot := &t.names[slotOf(load8(src[pos:]))]
	end := pos + slot.end - slot.start
	if end == pos || !t.at(pos, slot.span) || end < len(src) && nameChar[src[end]] {
		return span{start: pos, end: pos}
	}
	t.b.Start(slot.code)
	return span{pos, end, slot.word}
}

// attr adds an attribute to the element start opened last.  Its value is
// raw, as it stands in src before the offset pos.
func (t *scanner) attr(pos int, name, raw string) error {
	if t.events != nil {
		val, err := unescape(raw)
		if err != nil {
			return t.errAt(pos, "%v", err)
		}
		ev := &t.events[len(t.events)-1]
		ev.Attrs = append(ev.Attrs, Attr{Name: name, Value: val})
		return nil
	}
	t.buf = attrLabel(t.buf, name, "")
	var err error
	if t.buf, err = appendUnescaped(t.buf, raw); err != nil {
		return t.errAt(pos, "%v", err)
	}
	t.b.AddCode(t.b.CodeBytes(t.buf))
	return nil
}

// text delivers one chunk of character data of the innermost open element.
func (t *scanner) text(s string) {
	if t.events != nil {
		t.events = append(t.events, Event{Kind: Text, Text: s})
		return
	}
	t.b.AppendText(s)
}

// end closes the innermost open element, whose name is given.
func (t *scanner) end(name string) {
	if t.events != nil {
		t.events = append(t.events, Event{Kind: EndElement, Name: name})
		return
	}
	t.b.End()
}

// errAt returns a *SyntaxError at offset pos.
func (t *scanner) errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Offset: pos, Msg: fmt.Sprintf(format, args...)}
}

// scanText scans character data up to the next '<'.  A run that is blank
// once unescaped is dropped.
func (t *scanner) scanText(start int) (int, error) {
	pos := len(t.src)
	if end := strings.IndexByte(t.src[start:], '<'); end >= 0 {
		pos = start + end
	}
	raw := t.src[start:pos]
	if strings.IndexByte(raw, '&') < 0 || t.events != nil {
		s, err := unescape(raw)
		if err != nil {
			return pos, t.errAt(pos, "%v", err)
		}
		if strings.TrimSpace(s) == "" {
			return pos, nil
		}
		if len(t.stack) == 0 {
			return pos, t.errAt(pos, "character data outside the root element")
		}
		t.text(s)
		return pos, nil
	}
	var err error
	if t.buf, err = appendUnescaped(t.buf[:0], raw); err != nil {
		return pos, t.errAt(pos, "%v", err)
	}
	if len(bytes.TrimSpace(t.buf)) == 0 {
		return pos, nil
	}
	if len(t.stack) == 0 {
		return pos, t.errAt(pos, "character data outside the root element")
	}
	t.b.AppendTextBytes(t.buf)
	return pos, nil
}

// scanDecl scans the markup at pos that starts "<!" or "<?": a comment, a
// CDATA section, a DOCTYPE or the like, or a processing instruction.
func (t *scanner) scanDecl(pos int) (int, error) {
	src := t.src
	switch {
	case src[pos+1] == '?':
		end := strings.Index(src[pos+2:], "?>")
		if end < 0 {
			return pos, t.errAt(pos, "unterminated processing instruction")
		}
		return pos + 2 + end + 2, nil
	case strings.HasPrefix(src[pos:], "<!--"):
		end := strings.Index(src[pos+4:], "-->")
		if end < 0 {
			return pos, t.errAt(pos, "unterminated comment")
		}
		return pos + 4 + end + 3, nil
	case strings.HasPrefix(src[pos:], "<![CDATA["):
		end := strings.Index(src[pos+9:], "]]>")
		if end < 0 {
			return pos, t.errAt(pos, "unterminated CDATA section")
		}
		if len(t.stack) == 0 {
			return pos, t.errAt(pos, "CDATA outside the root element")
		}
		if data := src[pos+9 : pos+9+end]; data != "" {
			t.text(data)
		}
		return pos + 9 + end + 3, nil
	}
	// DOCTYPE or similar: skip to the matching '>'.
	end := strings.IndexByte(src[pos:], '>')
	if end < 0 {
		return pos, t.errAt(pos, "unterminated <! declaration")
	}
	return pos + end + 1, nil
}

// scanEndTag scans the rest of "</name>" from pos, just after the "</", when
// run's fast path did not.  The name is matched against the innermost open
// element's directly; only a mismatch scans it on its own.
func (t *scanner) scanEndTag(pos int) (int, error) {
	src := t.src
	var name string
	if len(t.stack) > 0 {
		open := t.open()
		if end := pos + len(open); strings.HasPrefix(src[pos:], open) && (end == len(src) || !nameChar[src[end]]) {
			name, pos = open, end
		}
	}
	matched := name != ""
	if !matched {
		end := scanName(src, pos)
		if end == pos {
			return pos, t.errAt(pos, "expected a name")
		}
		name, pos = src[pos:end], end
	}
	pos = skipSpace(src, pos)
	if pos >= len(src) || src[pos] != '>' {
		return pos, t.errAt(pos, "expected '>' after closing tag name %q", name)
	}
	pos++
	if len(t.stack) == 0 {
		return pos, t.errAt(pos, "closing tag </%s> without matching opening tag", name)
	}
	if !matched {
		return pos, t.errAt(pos, "closing tag </%s> does not match <%s>", name, t.open())
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.end(name)
	return pos, nil
}

// scanStartTag scans the rest of an opening or self-closing tag from pos,
// just after the '<'.
func (t *scanner) scanStartTag(pos int) (int, error) {
	src := t.src
	if len(t.stack) == 0 && t.rootSeen {
		return pos, t.errAt(pos, "multiple root elements")
	}
	if len(t.stack) >= MaxDepth {
		return pos, fmt.Errorf("%w: the element at offset %d is deeper than %d levels", ErrTooDeep, pos-1, MaxDepth)
	}
	open := span{start: pos, end: pos}
	if t.events == nil {
		open = t.cached(pos)
	}
	if open.end == pos {
		if open.end = scanName(src, pos); open.end == pos {
			return pos, t.errAt(pos, "expected a name")
		}
		open.word = prefix(src[pos:open.end])
		t.start(pos, open.end)
	}
	t.rootSeen = true
	return t.scanAttrs(open)
}

// scanAttrs scans the rest of a start tag after its name, which open spans
// and which start has opened: the attributes, then '>' or "/>".
func (t *scanner) scanAttrs(open span) (int, error) {
	src, pos := t.src, open.end
	name := src[open.start:open.end]
	for {
		pos = skipSpace(src, pos)
		if pos >= len(src) {
			return pos, t.errAt(pos, "unterminated tag <%s", name)
		}
		switch src[pos] {
		case '>':
			t.stack = append(t.stack, open)
			return pos + 1, nil
		case '/':
			if pos+1 < len(src) && src[pos+1] == '>' {
				t.end(name)
				return pos + 2, nil
			}
		}
		attrStart := pos
		if pos = scanName(src, attrStart); pos == attrStart {
			return pos, t.errAt(pos, "expected a name")
		}
		attrName := src[attrStart:pos]
		pos = skipSpace(src, pos)
		if pos >= len(src) || src[pos] != '=' {
			return pos, t.errAt(pos, "expected '=' after attribute name %q", attrName)
		}
		pos = skipSpace(src, pos+1)
		if pos >= len(src) || (src[pos] != '"' && src[pos] != '\'') {
			return pos, t.errAt(pos, "expected quoted attribute value for %q", attrName)
		}
		quote := src[pos]
		pos++
		end := strings.IndexByte(src[pos:], quote)
		if end < 0 {
			return len(src), t.errAt(len(src), "unterminated attribute value for %q", attrName)
		}
		if err := t.attr(pos+end, attrName, src[pos:pos+end]); err != nil {
			return pos + end, err
		}
		pos += end + 1
	}
}

// open returns the name of the innermost open element.
func (t *scanner) open() string {
	sp := t.stack[len(t.stack)-1]
	return t.src[sp.start:sp.end]
}

// scanName returns the end of the name that starts at pos in src: pos itself
// when none does.
func scanName(src string, pos int) int {
	for pos < len(src) && nameChar[src[pos]] {
		pos++
	}
	return pos
}

// skipSpace returns the offset of the first byte at or after pos in src that
// is not XML white space.
func skipSpace(src string, pos int) int {
	for pos < len(src) && (src[pos] == ' ' || src[pos] == '\t' || src[pos] == '\n' || src[pos] == '\r') {
		pos++
	}
	return pos
}

// nameChar reports the bytes a name may contain: ASCII letters and digits,
// '_', '-', '.' and ':'.
var nameChar = func() (tab [256]bool) {
	for c := range 256 {
		tab[c] = c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '.' || c == ':'
	}
	return tab
}()

// unescape resolves the five predefined XML entities and numeric character
// references.
func unescape(s string) (string, error) {
	if strings.IndexByte(s, '&') < 0 {
		return s, nil
	}
	b, err := appendUnescaped(nil, s)
	return string(b), err
}

// appendUnescaped appends s to dst with its entities and character
// references resolved.
func appendUnescaped(dst []byte, s string) ([]byte, error) {
	for {
		amp := strings.IndexByte(s, '&')
		if amp < 0 {
			return append(dst, s...), nil
		}
		dst = append(dst, s[:amp]...)
		s = s[amp:]
		end := strings.IndexByte(s, ';')
		if end < 0 {
			return dst, fmt.Errorf("unterminated entity reference")
		}
		switch ent := s[1:end]; {
		case ent == "lt":
			dst = append(dst, '<')
		case ent == "gt":
			dst = append(dst, '>')
		case ent == "amp":
			dst = append(dst, '&')
		case ent == "apos":
			dst = append(dst, '\'')
		case ent == "quot":
			dst = append(dst, '"')
		case strings.HasPrefix(ent, "#"):
			r, ok := charRef(ent[1:])
			if !ok {
				return dst, fmt.Errorf("bad numeric character reference &%s;", ent)
			}
			dst = utf8.AppendRune(dst, r)
		default:
			return dst, fmt.Errorf("unknown entity &%s;", ent)
		}
		s = s[end+1:]
	}
}

// charRef decodes the digits of a numeric character reference, "65" or
// "x41" for 'A': decimal or hexadecimal digits only — no sign, space or
// trailing byte — naming a character of XML 1.0's Char production.
func charRef(digits string) (rune, bool) {
	base := 10
	if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
		digits, base = digits[1:], 16
	}
	v, err := strconv.ParseUint(digits, base, 32)
	if err != nil {
		return 0, false
	}
	switch r := rune(v); {
	case r == 0x9 || r == 0xA || r == 0xD,
		r >= 0x20 && r <= 0xD7FF,
		r >= 0xE000 && r <= 0xFFFD,
		r >= 0x10000 && r <= 0x10FFFF:
		return r, true
	}
	return 0, false
}

// The escapers are the inverse of unescape for the characters that must be
// escaped in element content and in a double-quoted attribute value; the
// latter also writes tab, newline and carriage return as character
// references, which attribute-value normalization would otherwise turn into
// spaces.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;",
		"\t", "&#9;", "\n", "&#10;", "\r", "&#13;")
)

// Serialize renders a tree back to XML text.  Attribute labels of the form
// "@name=value" become attributes; node text becomes element content (a
// CDATA section when it is all whitespace, which Parse would otherwise drop).
// Indentation uses two spaces per depth level when indent is true.
func Serialize(t *tree.Tree, indent bool) string {
	var sb strings.Builder
	serializeNode(&sb, t, t.Root(), indent, 0)
	if indent {
		sb.WriteString("\n")
	}
	return sb.String()
}

func serializeNode(sb *strings.Builder, t *tree.Tree, n tree.NodeID, indent bool, depth int) {
	if indent && depth > 0 {
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("  ", depth))
	}
	name := t.Label(n)
	if name == "" {
		name = "node"
	}
	sb.WriteString("<" + name)
	codes := t.LabelCodes(n)
	for _, c := range codes[min(1, len(codes)):] {
		if l := t.Dict().Name(c); strings.HasPrefix(l, "@") {
			if eq := strings.IndexByte(l, '='); eq > 0 {
				sb.WriteString(" " + l[1:eq] + "=\"")
				attrEscaper.WriteString(sb, l[eq+1:])
				sb.WriteByte('"')
			}
		}
	}
	text := t.Text(n)
	if t.IsLeaf(n) && text == "" {
		sb.WriteString("/>")
		return
	}
	sb.WriteString(">")
	switch {
	case text == "":
	case strings.TrimSpace(text) == "":
		sb.WriteString("<![CDATA[" + text + "]]>")
	default:
		textEscaper.WriteString(sb, text)
	}
	for c := t.FirstChild(n); c != tree.InvalidNode; c = t.NextSibling(c) {
		serializeNode(sb, t, c, indent, depth+1)
	}
	if indent && !t.IsLeaf(n) {
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("  ", depth))
	}
	sb.WriteString("</" + name + ">")
}

// Events converts a tree into the SAX event stream that Tokenize would have
// produced for its serialization.  Used to drive the streaming evaluator
// over synthetic trees without going through text.
func Events(t *tree.Tree) []Event {
	var out []Event
	emitEvents(t, t.Root(), &out)
	return out
}

func emitEvents(t *tree.Tree, n tree.NodeID, out *[]Event) {
	name := t.Label(n)
	var attrs []Attr
	for _, c := range t.LabelCodes(n) {
		if l := t.Dict().Name(c); strings.HasPrefix(l, "@") {
			if eq := strings.IndexByte(l, '='); eq > 0 {
				attrs = append(attrs, Attr{Name: l[1:eq], Value: l[eq+1:]})
			}
		}
	}
	*out = append(*out, Event{Kind: StartElement, Name: name, Attrs: attrs})
	if txt := t.Text(n); txt != "" {
		*out = append(*out, Event{Kind: Text, Text: txt})
	}
	for c := t.FirstChild(n); c != tree.InvalidNode; c = t.NextSibling(c) {
		emitEvents(t, c, out)
	}
	*out = append(*out, Event{Kind: EndElement, Name: name})
}
