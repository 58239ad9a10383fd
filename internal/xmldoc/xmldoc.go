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
func Parse(src string) (*tree.Tree, error) {
	events, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return FromEvents(events)
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
	b := tree.NewBuilder()
	var stack []tree.NodeID
	var text []strings.Builder
	for i, ev := range events {
		switch ev.Kind {
		case StartElement:
			var id tree.NodeID
			if len(stack) == 0 {
				if b.Len() > 0 {
					return nil, &SyntaxError{Offset: i, Msg: "multiple root elements"}
				}
				id = b.AddRoot(ev.Name)
			} else {
				id = b.AddChild(stack[len(stack)-1], ev.Name)
			}
			for _, a := range ev.Attrs {
				b.AddLabel(id, "@"+a.Name+"="+a.Value)
			}
			stack = append(stack, id)
			text = append(text, strings.Builder{})
		case EndElement:
			if len(stack) == 0 {
				return nil, &SyntaxError{Offset: i, Msg: "unmatched end element " + ev.Name}
			}
			id := stack[len(stack)-1]
			if s := text[len(text)-1].String(); s != "" {
				b.SetText(id, s)
			}
			stack = stack[:len(stack)-1]
			text = text[:len(text)-1]
		case Text:
			if len(stack) == 0 {
				return nil, &SyntaxError{Offset: i, Msg: "character data outside the root element"}
			}
			text[len(text)-1].WriteString(ev.Text)
		}
	}
	if len(stack) != 0 {
		return nil, &SyntaxError{Offset: len(events), Msg: "unclosed elements at end of document"}
	}
	return b.Build()
}

// Tokenize scans src and returns the SAX-style event stream.  It validates
// well-formedness of tag nesting (every EndElement matches the innermost
// open StartElement).
func Tokenize(src string) ([]Event, error) {
	tz := &tokenizer{src: src}
	return tz.run()
}

type tokenizer struct {
	src    string
	pos    int
	events []Event
	stack  []string
}

func (t *tokenizer) errf(format string, args ...any) error {
	return &SyntaxError{Offset: t.pos, Msg: fmt.Sprintf(format, args...)}
}

func (t *tokenizer) run() ([]Event, error) {
	for t.pos < len(t.src) {
		if t.src[t.pos] == '<' {
			if err := t.scanMarkup(); err != nil {
				return nil, err
			}
			continue
		}
		if err := t.scanText(); err != nil {
			return nil, err
		}
	}
	if len(t.stack) != 0 {
		return nil, t.errf("unclosed element <%s>", t.stack[len(t.stack)-1])
	}
	rootSeen := false
	for _, ev := range t.events {
		if ev.Kind == StartElement {
			rootSeen = true
			break
		}
	}
	if !rootSeen {
		return nil, t.errf("document has no root element")
	}
	return t.events, nil
}

func (t *tokenizer) scanText() error {
	start := t.pos
	for t.pos < len(t.src) && t.src[t.pos] != '<' {
		t.pos++
	}
	raw := t.src[start:t.pos]
	unescaped, err := unescape(raw)
	if err != nil {
		return t.errf("%v", err)
	}
	if strings.TrimSpace(unescaped) == "" {
		return nil
	}
	if len(t.stack) == 0 {
		return t.errf("character data outside the root element")
	}
	t.events = append(t.events, Event{Kind: Text, Text: unescaped})
	return nil
}

func (t *tokenizer) scanMarkup() error {
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
			t.events = append(t.events, Event{Kind: Text, Text: data})
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
		t.events = append(t.events, Event{Kind: EndElement, Name: name})
		return nil
	}
	// Opening or self-closing tag.
	t.pos++ // consume '<'
	if len(t.stack) == 0 {
		for _, ev := range t.events {
			if ev.Kind == StartElement {
				return t.errf("multiple root elements")
			}
		}
	}
	name, err := t.scanName()
	if err != nil {
		return err
	}
	var attrs []Attr
	for {
		t.skipSpace()
		if t.pos >= len(t.src) {
			return t.errf("unterminated tag <%s", name)
		}
		if t.src[t.pos] == '>' {
			t.pos++
			t.events = append(t.events, Event{Kind: StartElement, Name: name, Attrs: attrs})
			t.stack = append(t.stack, name)
			return nil
		}
		if strings.HasPrefix(t.src[t.pos:], "/>") {
			t.pos += 2
			t.events = append(t.events, Event{Kind: StartElement, Name: name, Attrs: attrs})
			t.events = append(t.events, Event{Kind: EndElement, Name: name})
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
		for t.pos < len(t.src) && t.src[t.pos] != quote {
			t.pos++
		}
		if t.pos >= len(t.src) {
			return t.errf("unterminated attribute value for %q", attrName)
		}
		val, err := unescape(t.src[start:t.pos])
		if err != nil {
			return t.errf("%v", err)
		}
		t.pos++
		attrs = append(attrs, Attr{Name: attrName, Value: val})
	}
}

func (t *tokenizer) scanName() (string, error) {
	start := t.pos
	for t.pos < len(t.src) && isNameChar(t.src[t.pos]) {
		t.pos++
	}
	if t.pos == start {
		return "", t.errf("expected a name")
	}
	return t.src[start:t.pos], nil
}

func (t *tokenizer) skipSpace() {
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

// escape is the inverse of unescape for the characters that must be escaped
// in element content and attribute values.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;")
	return r.Replace(s)
}

// Serialize renders a tree back to XML text.  Attribute labels of the form
// "@name=value" become attributes; node text becomes element content.
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
				fmt.Fprintf(sb, " %s=%q", l[1:eq], escape(l[eq+1:]))
			}
		}
	}
	children := t.Children(n)
	text := t.Text(n)
	if len(children) == 0 && text == "" {
		sb.WriteString("/>")
		return
	}
	sb.WriteString(">")
	if text != "" {
		sb.WriteString(escape(text))
	}
	for _, c := range children {
		serializeNode(sb, t, c, indent, depth+1)
	}
	if indent && len(children) > 0 {
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
	for _, c := range t.Children(n) {
		emitEvents(t, c, out)
	}
	*out = append(*out, Event{Kind: EndElement, Name: name})
}
