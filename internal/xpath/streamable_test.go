package xpath_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/xpath"
)

// TestStreamableSteps pins the streamable fragment on one table: core's
// LangStream route refuses every out-of-fragment shape at Compile with
// stream.ErrUnsupported and its message, and the streaming matcher accepts
// exactly the texts the route accepts, with "//" fused the same way.
func TestStreamableSteps(t *testing.T) {
	for _, tc := range []struct {
		shape, text string
		steps       int // fused steps; 0 = out of the fragment
	}{
		{"child path", "/site/regions", 2},
		{"descendant path", "//item//keyword", 2},
		{"wildcard step", "//regions/*/item/name", 4},
		{"explicit axes", "/descendant-or-self::item/descendant::keyword", 2},
		{"descendant-or-self after //", "//a/descendant-or-self::a", 2},
		{"qualifier", "//item[name]", 0},
		{"qualifier on a fused step", "//item//keyword[text]", 0},
		{"union", "//a | //b", 0},
		{"reverse axis", "//item/parent::*", 0},
		{"reverse axis", "//keyword/ancestor::item", 0},
		{"sibling axis", "//item/following-sibling::item", 0},
		{"sibling axis", "//item/preceding-sibling::*", 0},
		{"self axis", "//item/self::item", 0},
		{"relative path", "item/name", 0},
		{"relative path", ".//item", 0},
	} {
		expr := xpath.MustParse(tc.text)
		steps, err := xpath.StreamableSteps(expr)
		if len(steps) != tc.steps {
			t.Errorf("%s %q: %d fused steps (error %v), want %d", tc.shape, tc.text, len(steps), err, tc.steps)
		}
		_, cerr := core.Compile(core.LangStream, tc.text)
		if (cerr == nil) != (tc.steps > 0) {
			t.Errorf("%s %q: Compile error = %v, want accepted = %v", tc.shape, tc.text, cerr, tc.steps > 0)
		}
		if tc.steps == 0 && (!errors.Is(cerr, stream.ErrUnsupported) || cerr.Error() != "stream: expression is outside the streamable downward-path fragment") {
			t.Errorf("%s %q: Compile error = %v, want stream.ErrUnsupported", tc.shape, tc.text, cerr)
		}
		m, serr := stream.Compile(expr)
		if (serr == nil) != (cerr == nil) {
			t.Errorf("%s %q: stream.Compile error = %v, Compile error = %v", tc.shape, tc.text, serr, cerr)
		}
		if serr == nil && m.Steps() != tc.steps {
			t.Errorf("%s %q: matcher has %d steps, want %d", tc.shape, tc.text, m.Steps(), tc.steps)
		}
	}
}
