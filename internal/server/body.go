package server

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON bodies of POST /v1/query, /v1/corpus/query and /v1/prepared are
// flat objects of strings, integers and booleans.  They are decoded by hand,
// without reflection: the body is read into a pooled buffer, copied once into
// a string, and each string field is a substring of that copy — only a string
// with escapes (or invalid UTF-8), or one much shorter than a large body,
// gets its own allocation.
//
// decodeObject accepts exactly what encoding/json's Decoder with
// DisallowUnknownFields accepts for the same struct, and yields the same
// values (FuzzV1QueryBody and FuzzV1PreparedBody hold the two equal):
//
//   - the first JSON value is decoded and whatever follows it is ignored;
//   - a top-level null decodes to the zero struct, a null member leaves its
//     field as it was;
//   - keys match field names case-insensitively (strings.EqualFold, as
//     encoding/json folds them), and a repeated key's last value wins;
//   - an unknown key, a value of the wrong type, and an integer written with
//     a fraction or an exponent, or out of int64's range, are errors;
//   - \u escapes, surrogate pairs and invalid UTF-8 decode as encoding/json
//     decodes them, each invalid byte or lone surrogate to U+FFFD.
//
// Every nested object or array is an error for these structs, whatever it
// holds, so the decoder never descends into one.

// maxBodySlack bounds what a decoded string may pin of the body it is a
// substring of: a string field more than this many bytes shorter than its
// body is copied out, so a cached plan keyed by a query text never holds a
// large body alive.
const maxBodySlack = 512

// bodyField is one member of a request body: its JSON name and the field it
// decodes into, exactly one of str, num and flag.
type bodyField struct {
	name string
	str  *string
	num  *int64
	flag *bool
}

// lookup returns the field key names, or nil.
func lookup(fields []bodyField, key string) *bodyField {
	for i := range fields {
		if fields[i].name == key || strings.EqualFold(fields[i].name, key) {
			return &fields[i]
		}
	}
	return nil
}

// errBody is a malformed body; its text follows "server: bad request body: ".
type errBody string

func (e errBody) Error() string { return string(e) }

func syntaxError(s string, i int) error {
	if i >= len(s) {
		return errBody("unexpected end of JSON input")
	}
	return errBody(fmt.Sprintf("invalid character %q at offset %d", s[i], i))
}

// typeError reports a value of the wrong kind for field f, named by key as
// the body spelled it.  (It takes nothing else of f: escape analysis does not
// tell a field's name from its pointers, and letting the name reach the
// error would move every decoded request to the heap.)
func typeError(kind, key string, f *bodyField) error {
	want := "a string"
	switch {
	case f.num != nil:
		want = "an integer"
	case f.flag != nil:
		want = "a boolean"
	}
	return errBody(fmt.Sprintf("cannot decode %s into %q: want %s", kind, key, want))
}

func skipSpace(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// decodeObject decodes the JSON object at the start of s into fields.
func decodeObject(s string, fields []bodyField) error {
	i := skipSpace(s, 0)
	if i == len(s) {
		return errBody("empty body")
	}
	switch {
	case strings.HasPrefix(s[i:], "null"):
		return nil
	case s[i] != '{':
		return errBody("the body must be a JSON object")
	}
	i = skipSpace(s, i+1)
	if i < len(s) && s[i] == '}' {
		return nil
	}
	for {
		if i >= len(s) || s[i] != '"' {
			return syntaxError(s, i)
		}
		key, next, err := scanString(s, i)
		if err != nil {
			return err
		}
		i = skipSpace(s, next)
		if i >= len(s) || s[i] != ':' {
			return syntaxError(s, i)
		}
		i = skipSpace(s, i+1)
		f := lookup(fields, key)
		if f == nil {
			return errBody(fmt.Sprintf("unknown field %q", key))
		}
		if i, err = decodeValue(s, i, key, f); err != nil {
			return err
		}
		i = skipSpace(s, i)
		if i >= len(s) {
			return syntaxError(s, i)
		}
		switch s[i] {
		case ',':
			i = skipSpace(s, i+1)
		case '}':
			return nil
		default:
			return syntaxError(s, i)
		}
	}
}

// decodeValue decodes the value of member key at s[i:] into f and returns
// the offset just past it.
func decodeValue(s string, i int, key string, f *bodyField) (int, error) {
	if i >= len(s) {
		return i, syntaxError(s, i)
	}
	switch c := s[i]; {
	case c == '"':
		v, next, err := scanString(s, i)
		if err != nil {
			return next, err
		}
		if f.str == nil {
			return next, typeError("a string", key, f)
		}
		if len(s)-len(v) > maxBodySlack {
			v = strings.Clone(v)
		}
		*f.str = v
		return next, nil
	case c == '-' || c >= '0' && c <= '9':
		return decodeNumber(s, i, key, f)
	case strings.HasPrefix(s[i:], "null"):
		return i + len("null"), nil
	case strings.HasPrefix(s[i:], "true"), strings.HasPrefix(s[i:], "false"):
		v := c == 't'
		if f.flag == nil {
			return i, typeError("a boolean", key, f)
		}
		*f.flag = v
		if v {
			return i + len("true"), nil
		}
		return i + len("false"), nil
	case c == '{' || c == '[':
		return i, typeError("an object or array", key, f)
	}
	return i, syntaxError(s, i)
}

// decodeNumber decodes the number at s[i:] into f, which must be an integer
// field and the number an integer literal in int64's range.
func decodeNumber(s string, i int, key string, f *bodyField) (int, error) {
	start := i
	if s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	default:
		return i, syntaxError(s, i)
	}
	if i < len(s) && (s[i] == '.' || s[i] == 'e' || s[i] == 'E') {
		return i, typeError("a number with a fraction or exponent", key, f)
	}
	if f.num == nil {
		return i, typeError("a number", key, f)
	}
	n, err := strconv.ParseInt(s[start:i], 10, 64)
	if err != nil {
		return i, typeError("a number out of range", key, f)
	}
	*f.num = n
	return i, nil
}

// scanString decodes the JSON string whose opening quote is s[i] and returns
// it with the offset past its closing quote.  A string without escapes whose
// bytes are valid UTF-8 is returned as a substring of s.
func scanString(s string, i int) (string, int, error) {
	start := i + 1
	for j := start; j < len(s); j++ {
		switch c := s[j]; {
		case c == '"':
			if v := s[start:j]; utf8.ValidString(v) {
				return v, j + 1, nil
			}
			return unquote(s, start)
		case c == '\\':
			return unquote(s, start)
		case c < ' ':
			return "", j, syntaxError(s, j)
		}
	}
	return "", len(s), syntaxError(s, len(s))
}

// unquote decodes the string body starting at s[start:] the slow way, into
// its own allocation: escapes resolved, surrogate pairs joined, and every
// invalid UTF-8 byte or unpaired surrogate replaced by U+FFFD.
func unquote(s string, start int) (string, int, error) {
	var b []byte
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			return string(b), i + 1, nil
		case c < ' ':
			return "", i, syntaxError(s, i)
		case c == '\\':
			if i+1 >= len(s) {
				return "", len(s), syntaxError(s, len(s))
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(s, i+2)
				if !ok {
					return "", i, syntaxError(s, i)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2, ok := lowSurrogate(s, i); ok {
						if d := utf16.DecodeRune(r, r2); d != utf8.RuneError {
							b = utf8.AppendRune(b, d)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return "", i + 1, syntaxError(s, i+1)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	return "", len(s), syntaxError(s, len(s))
}

// hex4 parses the four hex digits at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// lowSurrogate parses a \uXXXX escape at s[i:] that may complete a surrogate
// pair.
func lowSurrogate(s string, i int) (rune, bool) {
	if i+1 >= len(s) || s[i] != '\\' || s[i+1] != 'u' {
		return 0, false
	}
	return hex4(s, i+2)
}

// bodyBufs pools the buffers the query bodies are read into; a buffer grown
// past maxPooledBody by one large body is dropped instead of pinned.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// readQueryBody reads r's body whole, through a pooled buffer, into one
// string.
func readQueryBody(r *http.Request) (string, error) {
	if r.Body == nil {
		return "", nil
	}
	bp := bodyBufs.Get().(*[]byte)
	b := (*bp)[:0]
	if n := r.ContentLength; n > 0 && n < maxPooledBody {
		b = slices.Grow(b, int(n)+1) // +1: the read that sees EOF needs room
	}
	var err error
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		var n int
		n, err = r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			break
		}
	}
	body := string(b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBufs.Put(bp)
	}
	if err != io.EOF {
		return "", err
	}
	return body, nil
}
