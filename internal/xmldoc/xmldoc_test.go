package xmldoc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/treediff"
	"repro/internal/workload"
)

func TestParseSimple(t *testing.T) {
	doc := `<a><b><a/><c/></b><a><b/><d/></a></a>`
	tr, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Len() != 7 {
		t.Fatalf("Len = %d, want 7", tr.Len())
	}
	// Figure 2 of the paper: pre/post assignments.
	if got := tr.String(); got != "a(b(a c) a(b d))" {
		t.Errorf("tree = %q", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestParseAttributesAndText(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- a catalog -->
<catalog xmlns="urn:x">
  <book id="1" lang='en'>Tom &amp; Jerry</book>
  <book id="2">&#65;&#x42;C</book>
  <empty/>
</catalog>`
	tr, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	root := tr.Root()
	if tr.Label(root) != "catalog" {
		t.Errorf("root label = %q", tr.Label(root))
	}
	if !tr.HasLabel(root, "@xmlns=urn:x") {
		t.Errorf("xmlns attribute label missing: %v", tr.Labels(root))
	}
	books := tr.NodesWithLabel("book")
	if len(books) != 2 {
		t.Fatalf("books = %v", books)
	}
	if !tr.HasLabel(books[0], "@id=1") || !tr.HasLabel(books[0], "@lang=en") {
		t.Errorf("book 1 labels = %v", tr.Labels(books[0]))
	}
	if tr.Text(books[0]) != "Tom & Jerry" {
		t.Errorf("book 1 text = %q", tr.Text(books[0]))
	}
	if tr.Text(books[1]) != "ABC" {
		t.Errorf("book 2 text = %q", tr.Text(books[1]))
	}
}

func TestParseCDATAAndDoctype(t *testing.T) {
	doc := `<!DOCTYPE root><root><![CDATA[x < y & z]]></root>`
	tr, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Text(tr.Root()) != "x < y & z" {
		t.Errorf("CDATA text = %q", tr.Text(tr.Root()))
	}
}

// malformed are documents every ingest path must reject, with the byte offset
// and message of the *SyntaxError (as the two-stage Tokenize + FromEvents
// ingest reported them).
var malformed = []struct {
	name, doc string
	offset    int
	msg       string
}{
	{"empty", ``, 0, "document has no root element"},
	{"no root", `<!-- only a comment -->`, 23, "document has no root element"},
	{"text outside root", `hello<a/>`, 5, "character data outside the root element"},
	{"trailing text", `<a/>tail`, 8, "character data outside the root element"},
	{"cdata outside root", `<![CDATA[x]]><a/>`, 0, "CDATA outside the root element"},
	{"mismatched tags", `<a><b></a></b>`, 10, "closing tag </a> does not match <b>"},
	{"unclosed root", `<a><b></b>`, 10, "unclosed element <a>"},
	{"stray close", `</a>`, 4, "closing tag </a> without matching opening tag"},
	{"close without open", `<a></a></b>`, 11, "closing tag </b> without matching opening tag"},
	{"bad close name", `<a></ >`, 5, "expected a name"},
	{"close missing gt", `<a></a b>`, 7, "expected '>' after closing tag name \"a\""},
	{"two roots", `<a/><b/>`, 5, "multiple root elements"},
	{"second root after one", `<a></a><b></b>`, 8, "multiple root elements"},
	{"nameless tag", `<a>< b/></a>`, 4, "expected a name"},
	{"unterminated tag", `<a`, 2, "unterminated tag <a"},
	{"missing attr value", `<a id></a>`, 5, "expected '=' after attribute name \"id\""},
	{"unquoted attr value", `<a id=3></a>`, 6, "expected quoted attribute value for \"id\""},
	{"unterminated attr", `<a id="3></a>`, 13, "unterminated attribute value for \"id\""},
	{"bad attr entity", `<a id="&x;"/>`, 10, "unknown entity &x;"},
	{"unknown entity", `<a>&nope;</a>`, 9, "unknown entity &nope;"},
	{"unterminated entity", `<a>&amp</a>`, 7, "unterminated entity reference"},
	{"bad char ref", `<a>&#xZZ;</a>`, 9, "bad numeric character reference &#xZZ;"},
	{"unterminated comment", `<a><!-- oops</a>`, 3, "unterminated comment"},
	{"unterminated cdata", `<a><![CDATA[x</a>`, 3, "unterminated CDATA section"},
	{"unterminated pi", `<a><?pi </a>`, 3, "unterminated processing instruction"},
	{"unterminated doctype", `<!DOCTYPE foo`, 0, "unterminated <! declaration"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range malformed {
		_, err := Parse(tc.doc)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: Parse(%q) = %v, want a *SyntaxError", tc.name, tc.doc, err)
			continue
		}
		if se.Offset != tc.offset || se.Msg != tc.msg {
			t.Errorf("%s: Parse(%q) failed at offset %d with %q, want offset %d and %q",
				tc.name, tc.doc, se.Offset, se.Msg, tc.offset, tc.msg)
		}
	}
}

// TestNumericCharRefs: a numeric character reference is "&#" decimal digits
// ";" or "&#x" hexadecimal digits ";" naming a character of XML 1.0's Char
// production — nothing before, between or after the digits, no NUL, no
// surrogate and nothing past U+10FFFF.  Anything else is a *SyntaxError, in
// text and in attribute values alike.
func TestNumericCharRefs(t *testing.T) {
	for _, tc := range []struct{ ref, want string }{
		{"&#65;", "A"}, {"&#x41;", "A"}, {"&#X41;", "A"}, {"&#x6a;", "j"},
		{"x&#9;", "x\t"}, {"x&#10;", "x\n"}, {"x&#13;", "x\r"}, {"&#32;x", " x"},
		{"&#xD7FF;", "\uD7FF"}, {"&#xE000;", "\uE000"}, {"&#xFFFD;", "\uFFFD"},
		{"&#x10000;", "\U00010000"}, {"&#x10FFFF;", "\U0010FFFF"}, {"&#0065;", "A"},
	} {
		tr, err := Parse("<a>" + tc.ref + "</a>")
		if err != nil {
			t.Errorf("Parse(<a>%s</a>): %v", tc.ref, err)
			continue
		}
		if got := tr.Text(tr.Root()); got != tc.want {
			t.Errorf("Parse(<a>%s</a>): text %q, want %q", tc.ref, got, tc.want)
		}
	}
	for _, ref := range []string{
		"&#65abc;", "&# 65;", "&#+66;", "&#-5;", "&#x41zz;", "&#x;", "&#;", "&#x 41;",
		"&#x110000;", "&#xD800;", "&#xDFFF;", "&#0;", "&#8;", "&#x1F;", "&#xFFFE;",
		"&#99999999999;", "&#x_41;", "&#0x41;",
	} {
		for _, doc := range []string{"<a>" + ref + "</a>", `<a b="` + ref + `"/>`} {
			_, err := Parse(doc)
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) = %v, want a *SyntaxError", doc, err)
			}
		}
	}
}

// TestParseMixedContent: character data before and after a child element
// concatenates into the parent's text (the per-element strings.Builder stack
// this ingest replaced panicked on exactly these documents).
func TestParseMixedContent(t *testing.T) {
	for _, tc := range []struct{ doc, rootText string }{
		{`<a>x<b/>z</a>`, "xz"},
		{`<a>x &amp; y<b>q</b>z<c/>w</a>`, "x & yzw"},
		{`<a>1<b>2<c>3</c>4<c/>5</b>6<![CDATA[7]]></a>`, "167"},
	} {
		tr, err := Parse(tc.doc)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.doc, err)
		}
		if got := tr.Text(tr.Root()); got != tc.rootText {
			t.Errorf("Parse(%q): root text %q, want %q", tc.doc, got, tc.rootText)
		}
		evs, err := Tokenize(tc.doc)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", tc.doc, err)
		}
		tr2, err := FromEvents(evs)
		if err != nil {
			t.Fatalf("FromEvents(%q): %v", tc.doc, err)
		}
		if got := tr2.Text(tr2.Root()); got != tc.rootText {
			t.Errorf("FromEvents(%q): root text %q, want %q", tc.doc, got, tc.rootText)
		}
	}
}

// replay builds the tree of a Tokenize event stream through tree.Builder,
// the constructor that takes nodes in any order and ranks them at Build: the
// reference the preorder constructor of Parse and FromEvents is held to.
func replay(events []Event) (*tree.Tree, error) {
	b := tree.NewBuilder()
	var open []tree.NodeID
	for _, ev := range events {
		switch ev.Kind {
		case StartElement:
			parent := tree.InvalidNode
			if len(open) > 0 {
				parent = open[len(open)-1]
			}
			id := b.AddCoded(parent, b.Code(ev.Name))
			for _, a := range ev.Attrs {
				b.AddCode(id, b.Code("@"+a.Name+"="+a.Value))
			}
			open = append(open, id)
		case EndElement:
			open = open[:len(open)-1]
		case Text:
			b.AppendText(open[len(open)-1], ev.Text)
		}
	}
	return b.Build()
}

// TestParseMatchesEventPath: the scanner builds the same tree in preorder as
// tree.Builder does from a replay of its events, and as FromEvents does from
// them; and it rejects a malformed document identically on the tree path and
// the event path.
func TestParseMatchesEventPath(t *testing.T) {
	docs := []string{
		Serialize(workload.SiteDocument(workload.DocSpec{Items: 40, Regions: 6, DescriptionDepth: 2, Seed: 7}), false),
		Serialize(workload.SiteDocument(workload.DocSpec{Items: 15, Regions: 3, DescriptionDepth: 3, Seed: 8}), true),
		`<a/>`,
		`<catalog xmlns="urn:x"><book id="1" lang='en' id="1">Tom &amp; Jerry</book><empty a = "b"  /></catalog>`,
		`<r><![CDATA[x < y & z]]><s><![CDATA[ ]]></s><![CDATA[]]></r>`,
		`<?xml version="1.0"?><!DOCTYPE r><!-- c --><r><?pi x?><!-- <fake> --><s/></r><!-- tail --> `,
		`<r a="&lt;&#65;&#x42;&quot;&apos;">&gt;&#x20AC; </r>`,
		`<a>x<b/>z</a>`,
		`<a>x &amp; y<b>q</b>z<c/>w</a>`,
		`<a> <b> </b> lead<c/>trail </a>`,
		`<a>1<b>2<c>3</c>4<c/>5</b>6<![CDATA[7]]></a>`,
		`<region><regions/><region/><r/><re/><regionx>t</regionx></region>`,
	}
	for _, doc := range docs {
		direct, err := Parse(doc)
		if err != nil {
			t.Fatalf("Parse(%q): %v", doc, err)
		}
		evs, err := Tokenize(doc)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", doc, err)
		}
		replayed, err := replay(evs)
		if err != nil {
			t.Fatalf("replay(Tokenize(%q)): %v", doc, err)
		}
		fromEvents, err := FromEvents(evs)
		if err != nil {
			t.Fatalf("FromEvents(Tokenize(%q)): %v", doc, err)
		}
		for _, got := range []*tree.Tree{direct, fromEvents} {
			if !treediff.Equal(got, replayed) || got.Height() != replayed.Height() {
				t.Errorf("the preorder constructor and tree.Builder disagree on %q:\n%s\n%s",
					doc, treediff.Canonical(got), treediff.Canonical(replayed))
			}
			if err := got.Validate(); err != nil {
				t.Errorf("%q: %v", doc, err)
			}
		}
	}
	for _, tc := range malformed {
		_, perr := Parse(tc.doc)
		_, terr := Tokenize(tc.doc)
		if !reflect.DeepEqual(perr, terr) {
			t.Errorf("%s: Parse(%q) failed with %v, Tokenize with %v", tc.name, tc.doc, perr, terr)
		}
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse(`<a><b></c></a>`)
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("error message %q should mention offset", se.Error())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		`<a><b><a/><c/></b><a><b/><d/></a></a>`,
		`<catalog><book id="1">Tom &amp; Jerry</book><empty/></catalog>`,
		`<r><x/><y>text</y></r>`,
		// Attribute values Go quoting would rewrite: a backslash, a newline, a
		// tab, a carriage return, both quote characters, a non-ASCII rune.
		`<r path="c:\dir\new" note='say "hi" &amp; it&apos;s'><x v="a&#10;b&#9;c&#13;d" w="&#x20AC;"/></r>`,
		"<r v=\"line one\nline two\tend\"/>",
		`<r><s><![CDATA[ ]]></s></r>`,
	}
	for _, doc := range docs {
		tr := MustParse(doc)
		out := Serialize(tr, false)
		tr2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparse of %q: %v", out, err)
		}
		// Labels (attribute values included), text and shape must all survive.
		if !treediff.Equal(tr, tr2) {
			t.Errorf("round trip changed the tree:\n in: %s\nout: %s\n%s\n%s",
				doc, out, treediff.Canonical(tr), treediff.Canonical(tr2))
		}
	}
	tr := MustParse(`<r path="c:\dir" v="a&#10;b"/>`)
	if !tr.HasLabel(tr.Root(), `@path=c:\dir`) || !tr.HasLabel(tr.Root(), "@v=a\nb") {
		t.Fatalf("labels = %q", tr.Labels(tr.Root()))
	}
	if out, want := Serialize(tr, false), `<r path="c:\dir" v="a&#10;b"/>`; out != want {
		t.Errorf("Serialize = %s, want %s", out, want)
	}
}

func TestSerializeIndent(t *testing.T) {
	tr := MustParse(`<a><b><c/></b></a>`)
	out := Serialize(tr, true)
	if !strings.Contains(out, "\n  <b>") {
		t.Errorf("indented output missing indentation:\n%s", out)
	}
}

func TestEventsMatchTokenize(t *testing.T) {
	doc := `<a id="1"><b>hi</b><c/></a>`
	tr := MustParse(doc)
	evs := Events(tr)
	want := []EventKind{StartElement, StartElement, Text, EndElement, StartElement, EndElement, EndElement}
	if len(evs) != len(want) {
		t.Fatalf("Events len = %d, want %d (%v)", len(evs), len(want), evs)
	}
	for i, k := range want {
		if evs[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, evs[i].Kind, k)
		}
	}
	if evs[0].Attrs[0].Name != "id" || evs[0].Attrs[0].Value != "1" {
		t.Errorf("root attrs = %v", evs[0].Attrs)
	}
	// Rebuilding from events gives an equal tree.
	tr2, err := FromEvents(evs)
	if err != nil {
		t.Fatalf("FromEvents: %v", err)
	}
	if !tree.Equal(tr, tr2) {
		t.Errorf("FromEvents(Events(t)) != t")
	}
}

func TestFromEventsErrors(t *testing.T) {
	cases := [][]Event{
		{{Kind: EndElement, Name: "a"}},
		{{Kind: Text, Text: "x"}},
		{{Kind: StartElement, Name: "a"}},
		{{Kind: StartElement, Name: "a"}, {Kind: EndElement, Name: "a"}, {Kind: StartElement, Name: "b"}, {Kind: EndElement, Name: "b"}},
	}
	for i, evs := range cases {
		if _, err := FromEvents(evs); err == nil {
			t.Errorf("case %d: FromEvents should fail", i)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if StartElement.String() != "StartElement" || EndElement.String() != "EndElement" || Text.String() != "Text" {
		t.Errorf("EventKind.String wrong")
	}
	if EventKind(99).String() == "" {
		t.Errorf("unknown kind should still render")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MustParse of invalid document should panic")
		}
	}()
	MustParse(`<a>`)
}

// nested returns a document of depth elements, each the only child of the
// one before.
func nested(depth int) string {
	return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
}

// TestParseDepthBound: nesting up to MaxDepth parses, and one level more is
// ErrTooDeep, from Parse and Tokenize alike, before the scanner's stack of
// open elements grows past the bound.
func TestParseDepthBound(t *testing.T) {
	tr, err := Parse(nested(MaxDepth))
	if err != nil || tr.Len() != MaxDepth {
		t.Fatalf("depth %d: %v", MaxDepth, err)
	}
	if Serialize(tr, false) != strings.Repeat("<a>", MaxDepth-1)+"<a/>"+strings.Repeat("</a>", MaxDepth-1) {
		t.Error("a document at the depth bound does not serialize back")
	}
	for _, src := range []string{nested(MaxDepth + 1), strings.Repeat("<a>", MaxDepth) + "<b/>" + strings.Repeat("</a>", MaxDepth)} {
		if _, err := Parse(src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("depth %d: Parse error %v, want ErrTooDeep", MaxDepth+1, err)
		}
		if _, err := Tokenize(src); !errors.Is(err, ErrTooDeep) {
			t.Errorf("depth %d: Tokenize error %v, want ErrTooDeep", MaxDepth+1, err)
		}
	}
}
