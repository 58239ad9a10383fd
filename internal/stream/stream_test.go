package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

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
			got, stats, err := m.RunOnTree(tr, tr.NodesWithLabel)
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

// randomDoc builds a random document over element names a, b, c and x (which
// no query names, so the tree walk skips it) in which some nodes also carry an
// "@id=..." attribute label, a second plain label outside the query alphabet,
// or text; with secondary, some nodes carry a second label from a, b, c
// instead.  With scramble, children are attached to random earlier nodes, out
// of document order; otherwise they are attached along the rightmost path, in
// the order a parser adds them.
func randomDoc(nodes int, seed int64, scramble, secondary bool) *tree.Tree {
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
			extra := "extra"
			if secondary {
				extra = string(rune('a' + rng.Intn(3)))
			}
			b.AddLabel(id, extra)
		}
		if rng.Intn(4) == 0 {
			b.SetText(id, "text")
		}
	}
	return b.MustBuild()
}

// chainDoc hangs runs of 30 to 50 x levels, a label no query names, between
// and below named nodes, so that the walk skips the parents of some named
// nodes and the deepest nodes of the document, under frames whose pending
// sets are not empty.
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

// TestTreeWalkMatchesEventsAndXPath is the differential test of the two
// drivers: walking the tree must be indistinguishable — matches and every
// Stats field — from running the matcher over the tree's SAX events, and both
// must select what the in-memory XPath evaluator selects.  The documents put
// unnamed nodes between child steps and long unnamed chains below frames
// with pending states; the queries include "//" steps that fuse away and "*"
// tests that survive fusion.  On documents with secondary labels inside the
// query alphabet the walk, which tests every label of a node, is checked
// against XPath alone.
func TestTreeWalkMatchesEventsAndXPath(t *testing.T) {
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
		docs = append(docs, randomDoc(120, seed, false, false), randomDoc(120, seed, true, false))
	}
	secondary := len(docs)
	for seed := int64(0); seed < 4; seed++ {
		docs = append(docs, randomDoc(120, seed, seed%2 == 1, true))
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
			got, walkStats, err := m.RunOnTree(doc, doc.NodesWithLabel)
			if err != nil {
				t.Fatalf("RunOnTree(%q): %v", qs, err)
			}
			if want := xpath.Query(e, doc); !slices.Equal(got, want) {
				t.Errorf("doc %d %q: stream selects %v, xpath %v", di, qs, got, want)
			}
			if di >= secondary {
				continue
			}
			var fromEvents []tree.NodeID
			runStats, err := m.Run(events, func(pre int) { fromEvents = append(fromEvents, tree.NodeID(pre-1)) })
			if err != nil {
				t.Fatalf("Run(%q): %v", qs, err)
			}
			if !slices.IsSorted(fromEvents) {
				// Documents built out of order are numbered in preorder, so
				// document order is NodeID order.
				t.Errorf("doc %d %q: event run reports %v, not in NodeID order", di, qs, fromEvents)
			}
			if m.w > 1 {
				multiWordMatches += len(got)
			}
			if walkStats != runStats {
				t.Errorf("doc %d %q: tree walk stats %+v, event run stats %+v", di, qs, walkStats, runStats)
			}
			if walkStats.Events != len(events) || walkStats.Matches != len(got) {
				t.Errorf("doc %d %q: stats %+v for %d events and %d matches", di, qs, walkStats, len(events), len(got))
			}
			if !slices.Equal(got, fromEvents) {
				t.Errorf("doc %d %q: tree walk selects %v, event run %v", di, qs, got, fromEvents)
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

// TestMultiLabelledNodePassesEveryLabel: a node is tested by every label it
// carries, as by the XPath evaluators.  Run sees the one element name of the
// node's SAX events and selects nothing here.
func TestMultiLabelledNodePassesEveryLabel(t *testing.T) {
	doc := tree.MustParseSexpr("a(b+c)")
	e := xpath.MustParse("//c")
	m := MustCompile(e)
	got, stats, err := m.RunOnTree(doc, doc.NodesWithLabel)
	if err != nil {
		t.Fatal(err)
	}
	if want := xpath.Query(e, doc); !slices.Equal(got, want) || len(got) != 1 || stats.Matches != 1 {
		t.Errorf("//c on a(b+c): stream %v (%+v), xpath %v", got, stats, want)
	}
	if runStats, err := m.Run(xmldoc.Events(doc), nil); err != nil || runStats.Matches != 0 {
		t.Errorf("Run: %+v, %v; want no match on the element name b", runStats, err)
	}
}

// TestTreeWalkOpensOnlyNamedNodes: the walk opens one frame per node carrying
// one of the query's labels, not one per node of the document — and one per
// node when a "*" test survives fusion.
func TestTreeWalkOpensOnlyNamedNodes(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 60, Regions: 4, DescriptionDepth: 2, Seed: 5})
	for _, c := range []struct {
		query  string
		steps  int
		labels []string // nil: every node
	}{
		{"//item//keyword", 2, []string{"item", "keyword"}},
		{"//region/item/name", 3, []string{"region", "item", "name"}},
		{"/site/regions//item", 3, []string{"site", "regions", "item"}},
		{"//item/*", 2, nil},
	} {
		m := MustCompile(xpath.MustParse(c.query))
		if m.Steps() != c.steps {
			t.Errorf("%s: %d steps after fusion, want %d", c.query, m.Steps(), c.steps)
		}
		_, r := m.walk(doc, doc.NodesWithLabel)
		want := doc.Len()
		if c.labels != nil {
			want = 0
			for v := range tree.NodeID(doc.Len()) {
				if slices.ContainsFunc(c.labels, func(l string) bool { return doc.HasLabel(v, l) }) {
					want++
				}
			}
			if 3*want > doc.Len() {
				t.Fatalf("%s: %d of %d nodes carry a query label; the test needs a sparse query", c.query, want, doc.Len())
			}
		}
		if r.opens != want {
			t.Errorf("%s: the walk opened %d frames, want %d of %d nodes", c.query, r.opens, want, doc.Len())
		}
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

	_, deepStats, err := m.RunOnTree(deep, deep.NodesWithLabel)
	if err != nil {
		t.Fatal(err)
	}
	_, wideStats, err := m.RunOnTree(wide, wide.NodesWithLabel)
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
	tr := b.MustBuild()
	_, stats, err := m.RunOnTree(tr, tr.NodesWithLabel)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 3 {
		t.Errorf("events = %d, want 3 (start, text, end)", stats.Events)
	}
}
