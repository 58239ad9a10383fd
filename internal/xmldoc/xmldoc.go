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
	"fmt"
	"io"
	"slices"
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
// into a tree.Builder sized from a count of the document's start tags, and
// the labels and text of the tree are substrings of src wherever src spells
// them literally.
func Parse(src string) (*tree.Tree, error) {
	ts := newTreeSink(countStartTags(src))
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

// ParseReader parses an XML document from r.
func ParseReader(r io.Reader) (*tree.Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Parse(string(data))
}

// FromEvents builds a tree from a well-formed event stream.
func FromEvents(events []Event) (*tree.Tree, error) {
	elements := 0
	for i := range events {
		if events[i].Kind == StartElement {
			elements++
		}
	}
	ts := newTreeSink(elements)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case StartElement:
			if len(ts.open) == 0 && ts.b.Len() > 0 {
				return nil, &SyntaxError{Offset: i, Msg: "multiple root elements"}
			}
			ts.start(ev.Name, ev.Attrs)
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
	// start opens an element; attrs is scratch the scanner reuses, valid only
	// during the call.
	start(name string, attrs []Attr)
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

func (es *eventSink) start(name string, attrs []Attr) {
	var own []Attr // nil for an element without attributes
	if len(attrs) > 0 {
		own = slices.Clone(attrs)
	}
	es.events = append(es.events, Event{Kind: StartElement, Name: name, Attrs: own})
	es.names = append(es.names, name)
}

func (es *eventSink) text(s string) {
	es.events = append(es.events, Event{Kind: Text, Text: s})
}

func (es *eventSink) end() {
	last := len(es.names) - 1
	es.events = append(es.events, Event{Kind: EndElement, Name: es.names[last]})
	es.names = es.names[:last]
}

// treeSink adds the document to a tree.Builder, element by element.
type treeSink struct {
	b      *tree.Builder
	open   []openElement
	labels []string // scratch: the labels of the element being opened
	// names is a direct-mapped cache of the element names seen last: nodes of
	// one name share one string, so a label scan over the tree compares
	// against a few hot cache lines, not one per node scattered over the
	// source.  A collision only costs some of that sharing.
	names [64]string
}

// openElement is an element whose end tag is still to come.
type openElement struct {
	id tree.NodeID
	// text is the first chunk of the element's character data as it arrived —
	// in all but mixed content, the only one.
	text string
	// mixed is the concatenation of the chunks so far, once a second arrived.
	mixed []byte
}

// newTreeSink returns a sink whose builder is sized for the given number of
// elements.
func newTreeSink(elements int) *treeSink {
	b := tree.NewBuilder()
	b.Reserve(elements)
	return &treeSink{b: b}
}

func (ts *treeSink) intern(name string) string {
	h := len(name)
	if h > 0 {
		h = h*31 + int(name[0]) + int(name[h-1])<<3
	}
	slot := &ts.names[h%len(ts.names)]
	if *slot != name {
		*slot = name
	}
	return *slot
}

func (ts *treeSink) start(name string, attrs []Attr) {
	ts.labels = append(ts.labels[:0], ts.intern(name))
	for _, a := range attrs {
		ts.labels = append(ts.labels, "@"+a.Name+"="+a.Value)
	}
	var id tree.NodeID
	if len(ts.open) == 0 {
		id = ts.b.AddRoot(ts.labels...)
	} else {
		id = ts.b.AddChild(ts.open[len(ts.open)-1].id, ts.labels...)
	}
	ts.open = append(ts.open, openElement{id: id})
}

func (ts *treeSink) text(s string) {
	e := &ts.open[len(ts.open)-1]
	if e.text == "" {
		e.text = s
		return
	}
	if e.mixed == nil {
		e.mixed = append(make([]byte, 0, 2*(len(e.text)+len(s))), e.text...)
	}
	e.mixed = append(e.mixed, s...)
}

func (ts *treeSink) end() {
	e := ts.open[len(ts.open)-1]
	ts.open = ts.open[:len(ts.open)-1]
	if e.text == "" {
		return
	}
	if e.mixed != nil {
		e.text = string(e.mixed)
	}
	ts.b.SetText(e.id, e.text)
}

// countStartTags returns the number of '<' in src that a name character
// follows.  Every element has one, so the count bounds the node count from
// above, and it is exact unless a comment, a CDATA section or an attribute
// value contains such a pair.
func countStartTags(src string) int {
	n := 0
	for i := 0; ; {
		j := strings.IndexByte(src[i:], '<')
		if j < 0 || i+j+1 >= len(src) {
			return n
		}
		i += j + 1
		if isNameChar(src[i]) {
			n++
		}
	}
}

// scanner is the one XML scanner: it checks well-formedness and hands the
// document to a sink.
type scanner struct {
	src      string
	pos      int
	out      sink
	stack    []string // names of the open elements
	rootSeen bool
	attrs    []Attr // scratch handed to sink.start
}

// scan runs the scanner over src.
func scan(src string, out sink) error {
	t := &scanner{src: src, out: out}
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
		return t.errf("unclosed element <%s>", t.stack[len(t.stack)-1])
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
	// t.src[t.pos] == '<'
	if strings.HasPrefix(t.src[t.pos:], "<!--") {
		end := strings.Index(t.src[t.pos+4:], "-->")
		if end < 0 {
			return t.errf("unterminated comment")
		}
		t.pos += 4 + end + 3
		return nil
	}
	if strings.HasPrefix(t.src[t.pos:], "<?") {
		end := strings.Index(t.src[t.pos+2:], "?>")
		if end < 0 {
			return t.errf("unterminated processing instruction")
		}
		t.pos += 2 + end + 2
		return nil
	}
	if strings.HasPrefix(t.src[t.pos:], "<![CDATA[") {
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
		return nil
	}
	if strings.HasPrefix(t.src[t.pos:], "<!") {
		// DOCTYPE or similar: skip to the matching '>'.
		end := strings.IndexByte(t.src[t.pos:], '>')
		if end < 0 {
			return t.errf("unterminated <! declaration")
		}
		t.pos += end + 1
		return nil
	}
	if strings.HasPrefix(t.src[t.pos:], "</") {
		t.pos += 2
		name, err := t.scanName()
		if err != nil {
			return err
		}
		t.skipSpace()
		if t.pos >= len(t.src) || t.src[t.pos] != '>' {
			return t.errf("expected '>' after closing tag name %q", name)
		}
		t.pos++
		if len(t.stack) == 0 {
			return t.errf("closing tag </%s> without matching opening tag", name)
		}
		open := t.stack[len(t.stack)-1]
		if open != name {
			return t.errf("closing tag </%s> does not match <%s>", name, open)
		}
		t.stack = t.stack[:len(t.stack)-1]
		t.out.end()
		return nil
	}
	// Opening or self-closing tag.
	t.pos++ // consume '<'
	if len(t.stack) == 0 && t.rootSeen {
		return t.errf("multiple root elements")
	}
	name, err := t.scanName()
	if err != nil {
		return err
	}
	t.attrs = t.attrs[:0]
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return t.errf("unterminated tag <%s", name)
		}
		if t.src[t.pos] == '>' {
			t.pos++
			t.rootSeen = true
			t.out.start(name, t.attrs)
			t.stack = append(t.stack, name)
			return nil
		}
		if strings.HasPrefix(t.src[t.pos:], "/>") {
			t.pos += 2
			t.rootSeen = true
			t.out.start(name, t.attrs)
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
		t.attrs = append(t.attrs, Attr{Name: attrName, Value: val})
	}
}

func (t *scanner) scanName() (string, error) {
	start := t.pos
	for t.pos < len(t.src) && isNameChar(t.src[t.pos]) {
		t.pos++
	}
	if t.pos == start {
		return "", t.errf("expected a name")
	}
	return t.src[start:t.pos], nil
}

func (t *scanner) skipSpace() {
	for t.pos < len(t.src) {
		switch t.src[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return
		}
	}
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c == ':'
}

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
		case strings.HasPrefix(ent, "#x") || strings.HasPrefix(ent, "#X"):
			var r rune
			if _, err := fmt.Sscanf(ent[2:], "%x", &r); err != nil {
				return "", fmt.Errorf("bad numeric character reference &%s;", ent)
			}
			sb.WriteRune(r)
		case strings.HasPrefix(ent, "#"):
			var r rune
			if _, err := fmt.Sscanf(ent[1:], "%d", &r); err != nil {
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
	for _, l := range t.Labels(n)[min(1, len(t.Labels(n))):] {
		if strings.HasPrefix(l, "@") {
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
	for _, l := range t.Labels(n) {
		if strings.HasPrefix(l, "@") {
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
