package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/poolcheck"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func TestMain(m *testing.M) { poolcheck.Main(m, bitset.Outstanding) }

func TestCompileRejections(t *testing.T) {
	bad := []string{
		"//a[b]",                   // qualifier
		"//a/parent::b",            // reverse axis
		"//a | //b",                // union
		"a/b",                      // relative
		"//a/following-sibling::b", // sibling axis
	}
	for _, s := range bad {
		if _, err := Compile(xpath.MustParse(s)); err != ErrUnsupported {
			t.Errorf("Compile(%q) error = %v, want ErrUnsupported", s, err)
		}
	}
	if _, err := Compile(xpath.MustParse("//a/b")); err != nil {
		t.Errorf("//a/b should compile: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("MustCompile should panic on unsupported queries")
			}
		}()
		MustCompile(xpath.MustParse("//a[b]"))
	}()
}

// TestMatchesAgainstXPath cross-checks the streaming evaluator against the
// in-memory XPath evaluator on random documents.
func TestMatchesAgainstXPath(t *testing.T) {
	queries := []string{
		"//a",
		"//a/b",
		"//a//b",
		"//a//b/c",
		"/a/b//c",
		"//b/descendant-or-self::b",
		"//*/c",
		"/descendant::c",
	}
	for seed := int64(0); seed < 10; seed++ {
		tr := workload.RandomTree(workload.TreeSpec{Nodes: 80, Seed: seed, Alphabet: []string{"a", "b", "c"}})
		for _, qs := range queries {
			e := xpath.MustParse(qs)
			want := xpath.Query(e, tr)
			m, err := Compile(e)
			if err != nil {
				t.Fatalf("Compile(%q): %v", qs, err)
			}
			got, stats, err := runNodes(m, xmldoc.Events(tr))
			if err != nil {
				t.Fatalf("Run(%q): %v", qs, err)
			}
			if len(got) != len(want) {
				t.Errorf("seed %d %q: stream %d matches, xpath %d", seed, qs, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("seed %d %q: results differ at %d", seed, qs, i)
					break
				}
			}
			if stats.Matches != len(want) || stats.Events == 0 {
				t.Errorf("stats inconsistent: %+v", stats)
			}
		}
	}
}

func TestRunFromText(t *testing.T) {
	doc := `<site><regions><region><item><name/></item><item/></region></regions></site>`
	events, err := xmldoc.Tokenize(doc)
	if err != nil {
		t.Fatal(err)
	}
	m := MustCompile(xpath.MustParse("//region/item"))
	var pres []int
	stats, err := m.Run(events, func(pre int) { pres = append(pres, pre) })
	if err != nil {
		t.Fatal(err)
	}
	if len(pres) != 2 || stats.Matches != 2 {
		t.Errorf("matches = %v, stats = %+v", pres, stats)
	}
	if m.String() == "" {
		t.Errorf("String should return the source expression")
	}
}

func TestRunErrors(t *testing.T) {
	m := MustCompile(xpath.MustParse("//a"))
	start, end := xmldoc.Event{Kind: xmldoc.StartElement, Name: "a"}, xmldoc.Event{Kind: xmldoc.EndElement, Name: "a"}
	for _, c := range []struct {
		events []xmldoc.Event
		want   string
		seen   int // events consumed when the error is raised
	}{
		{[]xmldoc.Event{end}, `unmatched end element "a"`, 1},
		{[]xmldoc.Event{start, end, end, start}, `unmatched end element "a"`, 3},
		{[]xmldoc.Event{start}, "unclosed elements", 1},
		{[]xmldoc.Event{start, start, end}, "unclosed elements", 3},
	} {
		stats, err := m.Run(c.events, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error = %v, want one containing %q", c.events, err, c.want)
		}
		if stats.Events != c.seen {
			t.Errorf("%v: %d events consumed at the error, want %d", c.events, stats.Events, c.seen)
		}
	}
}

// runNodes runs m over events and returns the selected elements as NodeIDs
// (preorder rank - 1), in the order Run reports them.
func runNodes(m *Matcher, events []xmldoc.Event) ([]tree.NodeID, Stats, error) {
	var out []tree.NodeID
	stats, err := m.Run(events, func(pre int) { out = append(out, tree.NodeID(pre-1)) })
	return out, stats, err
}

// reference runs m's automaton over well-formed events one state at a time,
// with a pair of boolean sets per open element in place of Run's bit-parallel
// frames, and returns the selections and the Stats Run must report.
func reference(m *Matcher, events []xmldoc.Event) ([]tree.NodeID, Stats) {
	k := m.Steps()
	has := func(mask []uint64, i int) bool { return mask[i/64]>>(i%64)&1 == 1 }
	type frame struct{ states, pending []bool }
	var stack []frame
	var out []tree.NodeID
	stats := Stats{Events: len(events)}
	cells, pre := 0, 0
	// push settles f for a node passing the steps in pass and pushes it.
	push := func(f frame, pass []uint64) {
		for i := 0; i < k; i++ { // a descendant-or-self step fires on the node itself
			if f.states[i] && has(m.dos, i) && has(pass, i) {
				f.states[i+1] = true
			}
		}
		for i := 0; i <= k; i++ {
			if i < k && f.states[i] && has(m.deep, i) {
				f.pending[i] = true
			}
			for _, in := range []bool{f.states[i], f.pending[i]} {
				if in {
					cells++
				}
			}
		}
		stats.MaxStateCells = max(stats.MaxStateCells, cells)
		stack = append(stack, f)
	}
	root := frame{make([]bool, k+1), make([]bool, k+1)}
	root.states[0] = true
	push(root, m.star)
	for _, ev := range events {
		switch ev.Kind {
		case xmldoc.StartElement:
			pre++
			parent, pass := stack[len(stack)-1], m.pass(ev.Name)
			f := frame{make([]bool, k+1), slices.Clone(parent.pending)}
			for i := 0; i < k; i++ {
				f.states[i+1] = (parent.pending[i] || parent.states[i] && has(m.child, i)) && has(pass, i)
			}
			push(f, pass)
			stats.MaxDepth = max(stats.MaxDepth, len(stack)-1)
			if f.states[k] {
				stats.Matches++
				out = append(out, tree.NodeID(pre-1))
			}
		case xmldoc.EndElement:
			top := stack[len(stack)-1]
			for i := 0; i <= k; i++ {
				for _, in := range []bool{top.states[i], top.pending[i]} {
					if in {
						cells--
					}
				}
			}
			stack = stack[:len(stack)-1]
		}
	}
	return out, stats
}

// randomDoc builds a random document over element names a, b, c and x (which
// no query names) in which some nodes also carry an "@id=..." attribute
// label, a second plain label outside the query alphabet, or text.  With
// scramble, children are attached to random earlier nodes, out of document
// order; otherwise they are attached along the rightmost path, in the order a
// parser adds them.
func randomDoc(nodes int, seed int64, scramble bool) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	b := tree.NewBuilder()
	path := []tree.NodeID{b.AddRoot("a")}
	for i := 1; i < nodes; i++ {
		parent := tree.NodeID(rng.Intn(i))
		if !scramble {
			path = path[:1+rng.Intn(len(path))]
			parent = path[len(path)-1]
		}
		id := b.AddChild(parent, string(rune('a'+rng.Intn(3))))
		if rng.Intn(4) == 0 {
			id = b.AddChild(parent, "x")
		}
		path = append(path, id)
		if rng.Intn(3) == 0 {
			b.AddLabel(id, fmt.Sprintf("@id=%d", rng.Intn(5)))
		}
		if rng.Intn(4) == 0 {
			b.AddLabel(id, "extra")
		}
		if rng.Intn(4) == 0 {
			b.SetText(id, "text")
		}
	}
	return b.MustBuild()
}

// chainDoc hangs runs of 30 to 50 x levels, a label no query names, between
// and below named nodes, so that child steps meet unnamed parents and the
// deepest nodes of the document sit under frames whose pending sets are not
// empty.
func chainDoc() *tree.Tree {
	b := tree.NewBuilder()
	chain := func(from tree.NodeID, levels int) tree.NodeID {
		for ; levels > 0; levels-- {
			from = b.AddChild(from, "x")
		}
		return from
	}
	root := b.AddRoot("a")
	b.AddChild(b.AddChild(chain(root, 40), "b"), "c")
	chain(b.AddChild(root, "b"), 50)
	chain(b.AddChild(chain(b.AddChild(chain(root, 30), "a"), 35), "b"), 45)
	b.AddChild(b.AddChild(root, "b"), "c")
	return b.MustBuild()
}

// TestRunMatchesXPath is the differential test of the event automaton: Run
// over a tree's SAX events must select what the in-memory XPath evaluator
// selects, in document order, and report the Stats of a one-state-at-a-time
// reference run.  The documents put unnamed nodes between child steps and
// long unnamed chains below frames with pending states; the queries include
// "//" steps that fuse away, "*" tests that survive fusion, and queries of 64
// or more steps, whose frames span two words.
func TestRunMatchesXPath(t *testing.T) {
	dos := "/descendant-or-self::*"
	queries := []string{
		"//a", "/a", "/*", "/b", "//a/b", "//a//b/c", "/a/b//c", "//*/c", "//*/*", "//a//*",
		"/descendant::c", "/descendant-or-self::a",
		"/a/b", "/a/b/c", "//a/b/c", "//a//b//c", "//b//c", "//c", "/a//b/c", // gaps between child steps
		"//a/*/b", "/a//*/c", "//b/*", // "*" tests that survive fusion
		dos + dos + "/a",            // several leading descendant-or-self::* steps
		dos + dos + dos,             // ... and nothing else: selects every element
		"//a/a//a/a",                // one label on every step
		"//a/descendant-or-self::a", // self-matching chains
		"//a/descendant-or-self::a/descendant-or-self::a/b",
		"//b/descendant-or-self::*/descendant-or-self::b",
		strings.Repeat(dos, 70) + "/a/b",        // 71 steps: the closure carries across words
		"//a" + strings.Repeat("/*", 66) + "/a", // 68 steps, the last states in the second word
		"/a" + strings.Repeat("/descendant-or-self::a/*", 40),
	}
	docs := []*tree.Tree{workload.PathTree(90, "a"), chainDoc()}
	for seed := int64(0); seed < 6; seed++ {
		docs = append(docs, randomDoc(120, seed, false), randomDoc(120, seed, true))
	}
	multiWordMatches, fused, starred := 0, 0, 0
	for di, doc := range docs {
		events := xmldoc.Events(doc)
		for _, qs := range queries {
			e := xpath.MustParse(qs)
			m, err := Compile(e)
			if err != nil {
				t.Fatalf("Compile(%q): %v", qs, err)
			}
			if di == 0 {
				if slices.ContainsFunc(m.star, func(w uint64) bool { return w != 0 }) {
					starred++
				} else if m.Steps() < len(e.(*xpath.Path).Steps) {
					fused++
				}
			}
			got, stats, err := runNodes(m, events)
			if err != nil {
				t.Fatalf("Run(%q): %v", qs, err)
			}
			if want := xpath.Query(e, doc); !slices.Equal(got, want) {
				// Documents built out of order are numbered in preorder, so
				// document order is NodeID order.
				t.Errorf("doc %d %q: stream selects %v, xpath %v", di, qs, got, want)
			}
			if m.w > 1 {
				multiWordMatches += len(got)
			}
			if _, want := reference(m, events); stats != want {
				t.Errorf("doc %d %q: Run stats %+v, reference stats %+v", di, qs, stats, want)
			}
			if stats.Events != len(events) || stats.Matches != len(got) || stats.MaxDepth != doc.Height() {
				t.Errorf("doc %d %q: stats %+v for %d events, %d matches and height %d", di, qs, stats, len(events), len(got), doc.Height())
			}
		}
	}
	if multiWordMatches == 0 {
		t.Error("no query of 64 or more steps selected anything: the multi-word frame is not exercised")
	}
	if fused < 10 || starred < 10 {
		t.Errorf("%d queries lose a \"*\" step to fusion and %d keep one, want both exercised", fused, starred)
	}
}

// TestRunTestsTheElementNameOnly: a SAX event carries one element name, so
// Run tests a node by its first label alone.  //c on a(b+c) selects nothing
// here; the stored-document route, which tests every label, selects the b+c
// node (core's TestMultiLabelledNodePassesEveryLabel).
func TestRunTestsTheElementNameOnly(t *testing.T) {
	doc := tree.MustParseSexpr("a(b+c)")
	if stats, err := MustCompile(xpath.MustParse("//c")).Run(xmldoc.Events(doc), nil); err != nil || stats.Matches != 0 {
		t.Errorf("Run: %+v, %v; want no match on the element name b", stats, err)
	}
	if stats, err := MustCompile(xpath.MustParse("//b")).Run(xmldoc.Events(doc), nil); err != nil || stats.Matches != 1 {
		t.Errorf("Run: %+v, %v; want the element named b", stats, err)
	}
}

// TestMemoryProportionalToDepth is experiment E14: at equal document size,
// the streaming evaluator's memory high-watermark grows with the depth of
// the document (deep path-shaped documents) and stays flat for shallow
// documents.
func TestMemoryProportionalToDepth(t *testing.T) {
	const n = 2000
	deep := workload.PathTree(n, "a")
	wide := workload.WideTree(n, "a")
	m := MustCompile(xpath.MustParse("//a//a"))

	deepStats, err := m.Run(xmldoc.Events(deep), nil)
	if err != nil {
		t.Fatal(err)
	}
	wideStats, err := m.Run(xmldoc.Events(wide), nil)
	if err != nil {
		t.Fatal(err)
	}
	if deepStats.MaxDepth != n || wideStats.MaxDepth != 2 {
		t.Errorf("depths: deep %d, wide %d", deepStats.MaxDepth, wideStats.MaxDepth)
	}
	if deepStats.MaxStateCells < n {
		t.Errorf("deep document should need at least depth many state cells, got %d", deepStats.MaxStateCells)
	}
	if wideStats.MaxStateCells > 64 {
		t.Errorf("shallow document should need O(1) state cells, got %d", wideStats.MaxStateCells)
	}
	if deepStats.MaxStateCells < 50*wideStats.MaxStateCells {
		t.Errorf("memory should scale with depth: deep %d vs wide %d", deepStats.MaxStateCells, wideStats.MaxStateCells)
	}
	// Text events are ignored but counted.
	b := tree.NewBuilder()
	r := b.AddRoot("a")
	b.SetText(r, "hello")
	stats, err := m.Run(xmldoc.Events(b.MustBuild()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 3 {
		t.Errorf("events = %d, want 3 (start, text, end)", stats.Events)
	}
}
