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
	"errors"
	"fmt"
	"strconv"
	"strings"

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
// Parse is one left-to-right scan: the scanner feeds every element straight
// into a tree.Builder sized from a count of the document's tags, which
// codes each label as it arrives and copies the text into the tree's one text
// string.  The tree holds no reference to src.  A document nested deeper
// than MaxDepth is refused with ErrTooDeep.
func Parse(src string) (*tree.Tree, error) { return ParseDict(src, nil) }

// ParseDict is Parse against the label dictionary d of an earlier tree —
// usually tree.NextDict of the document's previous version — so that labels
// the earlier tree knew keep their codes and parsing them allocates nothing.
// d itself is never written: the first new label copies it.  A nil d starts a
// fresh dictionary.
func ParseDict(src string, d *tree.Dict) (*tree.Tree, error) {
	ts := newTreeSink(d, src)
	if err := scan(src, ts); err != nil {
		return nil, err
	}
	return ts.b.Build()
}

// MustParse is like Parse but panics on error; for tests and examples.
func MustParse(src string) *tree.Tree {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// FromEvents builds a tree from a well-formed event stream.
func FromEvents(events []Event) (*tree.Tree, error) {
	elements := 0
	for i := range events {
		if events[i].Kind == StartElement {
			elements++
		}
	}
	ts := &treeSink{b: tree.NewBuilder()}
	ts.b.Reserve(elements)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case StartElement:
			if len(ts.open) == 0 && ts.b.Len() > 0 {
				return nil, &SyntaxError{Offset: i, Msg: "multiple root elements"}
			}
			ts.start(ev.Name)
			for _, a := range ev.Attrs {
				ts.attr(a.Name, a.Value)
			}
		case EndElement:
			if len(ts.open) == 0 {
				return nil, &SyntaxError{Offset: i, Msg: "unmatched end element " + ev.Name}
			}
			ts.end()
		case Text:
			if len(ts.open) == 0 {
				return nil, &SyntaxError{Offset: i, Msg: "character data outside the root element"}
			}
			ts.text(ev.Text)
		}
	}
	if len(ts.open) != 0 {
		return nil, &SyntaxError{Offset: len(events), Msg: "unclosed elements at end of document"}
	}
	return ts.b.Build()
}

// Tokenize scans src and returns the SAX-style event stream.  It validates
// well-formedness of tag nesting (every EndElement matches the innermost
// open StartElement).
func Tokenize(src string) ([]Event, error) {
	var es eventSink
	if err := scan(src, &es); err != nil {
		return nil, err
	}
	return es.events, nil
}

// sink receives the document from the scanner, in document order.  The
// scanner has already checked well-formedness: start and end nest, text
// arrives only inside an open element, and there is exactly one root.
type sink interface {
	// start opens an element, whose attributes follow one attr call each.
	start(name string)
	// attr adds an attribute to the element start opened last.
	attr(name, value string)
	// text delivers one chunk of character data of the innermost open element.
	text(s string)
	// end closes the innermost open element.
	end()
}

// eventSink appends the document to an event slice.
type eventSink struct {
	events []Event
	names  []string // open element names, for the EndElement events
}

func (es *eventSink) start(name string) {
	es.events = append(es.events, Event{Kind: StartElement, Name: name})
	es.names = append(es.names, name)
}

func (es *eventSink) attr(name, value string) {
	ev := &es.events[len(es.events)-1]
	ev.Attrs = append(ev.Attrs, Attr{Name: name, Value: value})
}

func (es *eventSink) text(s string) {
	es.events = append(es.events, Event{Kind: Text, Text: s})
}

func (es *eventSink) end() {
	last := len(es.names) - 1
	es.events = append(es.events, Event{Kind: EndElement, Name: es.names[last]})
	es.names = es.names[:last]
}

// treeSink adds the document to a tree.Builder, element by element: names
// and attribute labels become codes on arrival, and text goes into the
// builder's text buffer.
type treeSink struct {
	b    *tree.Builder
	open []tree.NodeID // the elements whose end tag is still to come
	buf  []byte        // scratch: the attribute label being coded
	// names is a direct-mapped cache of the element names coded last: a hit
	// costs one short string comparison instead of a dictionary lookup, and
	// a collision only costs the lookup.
	names [256]struct {
		name string
		code tree.Code
	}
	// openBuf and bufBuf back open and buf until a document nests deeper or
	// an attribute label runs longer, so neither grows on a typical parse.
	openBuf [32]tree.NodeID
	bufBuf  [64]byte
}

// newTreeSink returns a sink whose builder draws codes from d and is sized
// for the document src.  An element opens with one '<' and closes with at
// most one more, so the elements number between half and all of the '<'
// (comments and the like aside): the builder is sized for five eighths,
// which covers a document whose elements are self-closing one time in four,
// and grows, or Build trims, in the rarer cases.  The text buffer starts at
// an eighth of src (a site document's text is about a twelfth of it) and
// grows by doubling beyond.
func newTreeSink(d *tree.Dict, src string) *treeSink {
	b := tree.NewBuilderDict(d)
	lt := strings.Count(src, "<")
	b.Reserve((lt+1)/2 + lt/8)
	b.ReserveText(len(src) / 8)
	ts := &treeSink{b: b}
	ts.open, ts.buf = ts.openBuf[:0], ts.bufBuf[:0]
	return ts
}

func (ts *treeSink) start(name string) {
	parent := tree.InvalidNode
	if len(ts.open) > 0 {
		parent = ts.open[len(ts.open)-1]
	}
	ts.open = append(ts.open, ts.b.AddCoded(parent, ts.code(name)))
}

// code returns the code of an element name, from the cache when it holds it.
func (ts *treeSink) code(name string) tree.Code {
	// Hash the length and the first, middle and last bytes (Fibonacci
	// hashing: the top byte of the product picks the slot).
	h := uint32(len(name)) << 16
	if len(name) > 0 {
		h |= uint32(name[0])<<8 | uint32(name[len(name)-1]) | uint32(name[len(name)/2])<<24
	}
	slot := &ts.names[(h*0x9E3779B1)>>24]
	if slot.name != name || slot.name == "" {
		slot.name, slot.code = name, ts.b.Code(name)
	}
	return slot.code
}

func (ts *treeSink) attr(name, value string) {
	ts.buf = ts.buf[:0]
	ts.buf = append(ts.buf, '@')
	ts.buf = append(ts.buf, name...)
	ts.buf = append(ts.buf, '=')
	ts.buf = append(ts.buf, value...)
	ts.b.AddCode(ts.open[len(ts.open)-1], ts.b.CodeBytes(ts.buf))
}

func (ts *treeSink) text(s string) { ts.b.AppendText(ts.open[len(ts.open)-1], s) }

func (ts *treeSink) end() { ts.open = ts.open[:len(ts.open)-1] }

// scanner is the one XML scanner: it checks well-formedness and hands the
// document to a sink.
type scanner struct {
	src      string
	pos      int
	out      sink
	stack    []span   // names of the open elements, as spans of src
	stackBuf [32]span // backs stack until a document nests deeper
	rootSeen bool
}

// span is the substring src[start:end] of the scanned document; the stack
// of open names holds no pointer for the collector to trace.
type span struct{ start, end int }

// scan runs the scanner over src.
func scan(src string, out sink) error {
	t := &scanner{src: src, out: out}
	t.stack = t.stackBuf[:0]
	for t.pos < len(t.src) {
		if t.src[t.pos] == '<' {
			if err := t.scanMarkup(); err != nil {
				return err
			}
			continue
		}
		if err := t.scanText(); err != nil {
			return err
		}
	}
	if len(t.stack) != 0 {
		return t.errf("unclosed element <%s>", t.open())
	}
	if !t.rootSeen {
		return t.errf("document has no root element")
	}
	return nil
}

func (t *scanner) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.pos, Msg: fmt.Sprintf(format, args...)}
}

func (t *scanner) scanText() error {
	start := t.pos
	if end := strings.IndexByte(t.src[start:], '<'); end >= 0 {
		t.pos = start + end
	} else {
		t.pos = len(t.src)
	}
	unescaped, err := unescape(t.src[start:t.pos])
	if err != nil {
		return t.errf("%v", err)
	}
	if strings.TrimSpace(unescaped) == "" {
		return nil
	}
	if len(t.stack) == 0 {
		return t.errf("character data outside the root element")
	}
	t.out.text(unescaped)
	return nil
}

func (t *scanner) scanMarkup() error {
	// t.src[t.pos] == '<': the byte after it tells the markup apart.
	var next byte
	if t.pos+1 < len(t.src) {
		next = t.src[t.pos+1]
	}
	switch next {
	case '!':
		switch {
		case strings.HasPrefix(t.src[t.pos:], "<!--"):
			end := strings.Index(t.src[t.pos+4:], "-->")
			if end < 0 {
				return t.errf("unterminated comment")
			}
			t.pos += 4 + end + 3
		case strings.HasPrefix(t.src[t.pos:], "<![CDATA["):
			end := strings.Index(t.src[t.pos+9:], "]]>")
			if end < 0 {
				return t.errf("unterminated CDATA section")
			}
			data := t.src[t.pos+9 : t.pos+9+end]
			if len(t.stack) == 0 {
				return t.errf("CDATA outside the root element")
			}
			if data != "" {
				t.out.text(data)
			}
			t.pos += 9 + end + 3
		default:
			// DOCTYPE or similar: skip to the matching '>'.
			end := strings.IndexByte(t.src[t.pos:], '>')
			if end < 0 {
				return t.errf("unterminated <! declaration")
			}
			t.pos += end + 1
		}
		return nil
	case '?':
		end := strings.Index(t.src[t.pos+2:], "?>")
		if end < 0 {
			return t.errf("unterminated processing instruction")
		}
		t.pos += 2 + end + 2
		return nil
	case '/':
		return t.scanEndTag()
	}
	return t.scanStartTag()
}

// scanEndTag scans "</name>" at t.pos.  The name is matched against the
// innermost open element's directly; only a mismatch scans it on its own.
func (t *scanner) scanEndTag() error {
	t.pos += 2
	var name string
	if len(t.stack) > 0 {
		open := t.open()
		if end := t.pos + len(open); strings.HasPrefix(t.src[t.pos:], open) && (end == len(t.src) || !nameChar[t.src[end]]) {
			name, t.pos = open, end
		}
	}
	matched := name != ""
	if !matched {
		var err error
		if name, err = t.scanName(); err != nil {
			return err
		}
	}
	t.skipSpace()
	if t.pos >= len(t.src) || t.src[t.pos] != '>' {
		return t.errf("expected '>' after closing tag name %q", name)
	}
	t.pos++
	if len(t.stack) == 0 {
		return t.errf("closing tag </%s> without matching opening tag", name)
	}
	if !matched {
		return t.errf("closing tag </%s> does not match <%s>", name, t.open())
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.out.end()
	return nil
}

// scanStartTag scans an opening or self-closing tag at t.pos.
func (t *scanner) scanStartTag() error {
	t.pos++ // consume '<'
	if len(t.stack) == 0 && t.rootSeen {
		return t.errf("multiple root elements")
	}
	if len(t.stack) >= MaxDepth {
		return fmt.Errorf("%w: the element at offset %d is deeper than %d levels", ErrTooDeep, t.pos-1, MaxDepth)
	}
	start := t.pos
	name, err := t.scanName()
	if err != nil {
		return err
	}
	t.rootSeen = true
	t.out.start(name)
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return t.errf("unterminated tag <%s", name)
		}
		if t.src[t.pos] == '>' {
			t.pos++
			t.stack = append(t.stack, span{start, start + len(name)})
			return nil
		}
		if strings.HasPrefix(t.src[t.pos:], "/>") {
			t.pos += 2
			t.out.end()
			return nil
		}
		attrName, err := t.scanName()
		if err != nil {
			return err
		}
		t.skipSpace()
		if t.pos >= len(t.src) || t.src[t.pos] != '=' {
			return t.errf("expected '=' after attribute name %q", attrName)
		}
		t.pos++
		t.skipSpace()
		if t.pos >= len(t.src) || (t.src[t.pos] != '"' && t.src[t.pos] != '\'') {
			return t.errf("expected quoted attribute value for %q", attrName)
		}
		quote := t.src[t.pos]
		t.pos++
		start := t.pos
		end := strings.IndexByte(t.src[start:], quote)
		if end < 0 {
			t.pos = len(t.src)
			return t.errf("unterminated attribute value for %q", attrName)
		}
		t.pos = start + end
		val, err := unescape(t.src[start:t.pos])
		if err != nil {
			return t.errf("%v", err)
		}
		t.pos++
		t.out.attr(attrName, val)
	}
}

// open returns the name of the innermost open element.
func (t *scanner) open() string {
	sp := t.stack[len(t.stack)-1]
	return t.src[sp.start:sp.end]
}

func (t *scanner) scanName() (string, error) {
	src, start, end := t.src, t.pos, t.pos
	for end < len(src) && nameChar[src[end]] {
		end++
	}
	if end == start {
		return "", t.errf("expected a name")
	}
	t.pos = end
	return src[start:end], nil
}

func (t *scanner) skipSpace() {
	src, i := t.src, t.pos
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	t.pos = i
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
	if !strings.Contains(s, "&") {
		return s, nil
	}
	var sb strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '&' {
			sb.WriteByte(s[i])
			i++
			continue
		}
		end := strings.IndexByte(s[i:], ';')
		if end < 0 {
			return "", fmt.Errorf("unterminated entity reference")
		}
		ent := s[i+1 : i+end]
		switch {
		case ent == "lt":
			sb.WriteByte('<')
		case ent == "gt":
			sb.WriteByte('>')
		case ent == "amp":
			sb.WriteByte('&')
		case ent == "apos":
			sb.WriteByte('\'')
		case ent == "quot":
			sb.WriteByte('"')
		case strings.HasPrefix(ent, "#"):
			r, ok := charRef(ent[1:])
			if !ok {
				return "", fmt.Errorf("bad numeric character reference &%s;", ent)
			}
			sb.WriteRune(r)
		default:
			return "", fmt.Errorf("unknown entity &%s;", ent)
		}
		i += end + 1
	}
	return sb.String(), nil
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
