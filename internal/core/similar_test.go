package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

func TestParseSimilarText(t *testing.T) {
	k, maxDist, pat, err := parseSimilarText("k=5 maxdist=2 a(b c)")
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 || maxDist != 2 || pat.Len() != 3 {
		t.Fatalf("got k=%d maxdist=%d |pat|=%d", k, maxDist, pat.Len())
	}
	if k, maxDist, _, err = parseSimilarText("a(b c)"); err != nil || k != DefaultSimilarK || maxDist != -1 {
		t.Fatalf("defaults: k=%d maxdist=%d err=%v", k, maxDist, err)
	}
	if _, _, _, err = parseSimilarText("k=x a"); err == nil {
		t.Fatal("bad k accepted")
	}
	if _, _, _, err = parseSimilarText("k=3"); err == nil {
		t.Fatal("missing pattern accepted")
	}
	// A label containing '=' after the directives still parses as a pattern.
	if _, _, pat, err = parseSimilarText("k=2 x=y(a)"); err != nil || pat.Label(pat.Root()) != "x=y" {
		t.Fatalf("literal label: pat=%v err=%v", pat, err)
	}
}

func TestSimilarExactMatchRanksFirst(t *testing.T) {
	doc := tree.MustParseSexpr("r(a(b c) a(b) a(b c d) x(y))")
	e := New(doc)
	hits, _, err := e.Similar("k=3 a(b c)")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("got %d hits, want 3", len(hits))
	}
	if hits[0].Distance != 0 || doc.Label(hits[0].Node) != "a" {
		t.Fatalf("best hit = %+v, want the exact copy at distance 0", hits[0])
	}
	if hits[1].Distance != 1 || hits[2].Distance != 1 {
		t.Fatalf("next hits = %+v %+v, want distance 1 (a(b) and a(b c d))", hits[1], hits[2])
	}
	for i := 1; i < len(hits); i++ {
		prev, cur := hits[i-1], hits[i]
		if cur.Distance < prev.Distance || (cur.Distance == prev.Distance && doc.Pre(cur.Node) < doc.Pre(prev.Node)) {
			t.Fatalf("hits not in (distance, pre) order: %+v", hits)
		}
	}
}

// TestSimilarPrunedMatchesExhaustive is the core top-k correctness check:
// on random documents the pruned search (Auto) must return exactly what the
// exhaustive Naive-strategy search returns, for several k and maxdist
// combinations.
func TestSimilarPrunedMatchesExhaustive(t *testing.T) {
	queries := []string{
		"k=1 a(b c)",
		"k=5 a(b c)",
		"k=8 maxdist=3 b(a(c) c)",
		"k=0 maxdist=2 c(a b)",
		"k=0 a",          // unlimited: every subtree, ranked
		"k=4 e(e(e(e)))", // labels absent from most docs
	}
	for seed := int64(0); seed < 6; seed++ {
		doc := workload.RandomTree(workload.TreeSpec{Nodes: 120, Seed: seed})
		pruned := New(doc)
		exhaustive := New(doc, WithStrategy(Naive))
		for _, q := range queries {
			checkPrunedMatchesExhaustive(t, fmt.Sprintf("seed %d", seed), pruned, exhaustive, q)
		}
	}

	// Site documents are tie-heavy: every description is an exact copy of
	// the bench pattern, so hundreds of candidates share each distance and
	// only the preorder tiebreak decides which enter a full heap.  Sweep k
	// and maxdist, including maxdist equal to the k-th distance — the one
	// place where maxdist (which admits ties whatever their pre order) and a
	// full heap (which admits only earlier ones) draw the line differently.
	patterns := []string{
		"description(parlist(listitem(keyword text)))", // scan_mix and corpus_fanout
		"description(parlist(listitem(keyword)))",      // ties at distance 1
		"item(name description(parlist))",
	}
	for _, spec := range []workload.DocSpec{
		{Items: 40, Seed: 1},
		{Items: 120, Regions: 3, DescriptionDepth: 2, Seed: 2},
		{Items: 200, Regions: 6, Seed: 3},
	} {
		doc := workload.SiteDocument(spec)
		pruned := New(doc)
		exhaustive := New(doc, WithStrategy(Naive))
		where := fmt.Sprintf("site %d items depth %d", spec.Items, spec.DescriptionDepth)
		for _, pat := range patterns {
			ranked, _, err := exhaustive.Similar("k=0 " + pat)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 1, 5, 10} {
				maxDists := []int{-1, 0, 1, 2}
				if k > 0 {
					maxDists = append(maxDists, ranked[k-1].Distance)
				}
				for _, maxDist := range maxDists {
					q := fmt.Sprintf("k=%d %s", k, pat)
					if maxDist >= 0 {
						q = fmt.Sprintf("k=%d maxdist=%d %s", k, maxDist, pat)
					}
					checkPrunedMatchesExhaustive(t, where, pruned, exhaustive, q)
				}
			}
		}
	}
}

// checkPrunedMatchesExhaustive runs q on both engines and fails unless the
// pruned hits equal the exhaustive ones, in order.
func checkPrunedMatchesExhaustive(t *testing.T, where string, pruned, exhaustive *Engine, q string) {
	t.Helper()
	want, _, err := exhaustive.Similar(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := pruned.Similar(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s %q: pruned %d hits, exhaustive %d", where, q, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s %q hit %d: pruned %+v, exhaustive %+v", where, q, i, got[i], want[i])
		}
	}
}

// TestSimilarTopKStopsAtKthAnswer: on a 200-item site document every
// description is an exact copy of the pattern, so once the first k of them in
// document order are scored the k-th answer is decided and no other candidate
// can enter.  One execution must make at most k kernel calls, not one per
// tie, and the counters must still account for every subtree exactly once:
// candidates = size-pruned + histogram-pruned + kernel calls = |doc|.
func TestSimilarTopKStopsAtKthAnswer(t *testing.T) {
	const k = 10
	doc := workload.SiteDocument(workload.DocSpec{Items: 200})
	c, err := Compile(LangSimilar, fmt.Sprintf("k=%d description(parlist(listitem(keyword text)))", k))
	if err != nil {
		t.Fatal(err)
	}
	e := New(doc)
	c0, s0, h0, k0 := SimilarCounters()
	res, _, err := c.Exec(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	c1, s1, h1, k1 := SimilarCounters()
	candidates, sizePruned, histPruned, calls := c1-c0, s1-s0, h1-h0, k1-k0
	if calls > k {
		t.Errorf("%d kernel calls for k=%d on %d exact ties, want at most k", calls, k, 200)
	}
	if candidates != sizePruned+histPruned+calls {
		t.Errorf("counter identity broken: %d candidates != %d size-pruned + %d histogram-pruned + %d kernel calls",
			candidates, sizePruned, histPruned, calls)
	}
	if candidates != uint64(doc.Len()) {
		t.Errorf("%d candidates on a %d-node document, want every subtree counted once", candidates, doc.Len())
	}
	if len(res.Hits) != k {
		t.Fatalf("got %d hits, want %d", len(res.Hits), k)
	}
	for i, h := range res.Hits {
		if h.Distance != 0 || doc.Label(h.Node) != "description" {
			t.Fatalf("hit %d = %+v (%s), want an exact description copy", i, h, doc.Label(h.Node))
		}
		if i > 0 && doc.Pre(h.Node) <= doc.Pre(res.Hits[i-1].Node) {
			t.Fatalf("hits not in document order among ties: %+v", res.Hits)
		}
	}
}

// FuzzSimilarPrunedVsExhaustive feeds arbitrary similarity query text — the
// "k=" / "maxdist=" directives and the pattern — against small random trees
// over a 3–5 letter alphabet chosen by the seed.  Text that compiles must
// give the pruned search exactly the exhaustive search's hits; text that does
// not must be rejected with an error, under both strategies alike.
func FuzzSimilarPrunedVsExhaustive(f *testing.F) {
	for _, text := range []string{
		"k=1 a(b c)", "k=5 maxdist=2 b(a(c) c)", "k=0 a", "maxdist=0 a(b)",
		"k=3 maxdist=1 a(a(a) b)", "k=2 c(d e(a))", "k=2 x=y(a)", "k=10 a+b(_ c)",
		"k=x a", "k=3", "maxdist=-1 a", "a(b", "a)", "",
	} {
		f.Add(text, int64(len(text)))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		if len(text) > 1<<8 {
			t.Skip("oversized input")
		}
		pruned, err := Compile(LangSimilar, text)
		exhaustive, nerr := Compile(LangSimilar, text, WithStrategy(Naive))
		if (err == nil) != (nerr == nil) {
			t.Fatalf("%q: pruned compile error %v, exhaustive %v", text, err, nerr)
		}
		if err != nil {
			return // rejecting a malformed query is fine; crashing is not
		}
		u := uint64(seed)
		doc := workload.RandomTree(workload.TreeSpec{
			Nodes:    1 + int(u>>8%60),
			Alphabet: []string{"a", "b", "c", "d", "e"}[:3+u%3],
			Seed:     seed,
		})
		e := New(doc)
		want, _, err := exhaustive.Exec(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := pruned.Exec(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Hits) != fmt.Sprint(want.Hits) {
			t.Fatalf("%q on %s: pruned %v, exhaustive %v", text, doc, got.Hits, want.Hits)
		}
	})
}

// patternToTwig renders a pattern tree as the //-rooted twig expression that
// matches nodes whose subtree embeds the pattern's child structure:
// a(b(c) d) becomes //a[b[c]][d].
func patternToTwig(t *tree.Tree, v tree.NodeID) string {
	var sb strings.Builder
	sb.WriteString(t.Label(v))
	for _, c := range t.Children(v) {
		fmt.Fprintf(&sb, "[%s]", patternToTwig(t, c))
	}
	return sb.String()
}

// TestSimilarDifferentialVsTwig: on documents where every pattern-labeled
// subtree is an exact copy of the pattern, LangSimilar with k=∞ (k=0) and
// maxdist=0 must select exactly the nodes the exact twig route selects.
func TestSimilarDifferentialVsTwig(t *testing.T) {
	patterns := []string{"a(b c)", "a(b(c) d)", "a(b(c d) b(c))"}
	for _, ps := range patterns {
		pat := tree.MustParseSexpr(ps)
		// Build a spine of nodes labeled outside the pattern alphabet and
		// hang exact pattern copies plus near-miss decoys off it.  Labels
		// s/t/u/v never occur in the patterns, so every a-labeled node roots
		// an exact copy or a decoy — and the decoys' subtrees differ from the
		// pattern, keeping the twig route's embedding semantics and exact
		// subtree equality in agreement.
		b := tree.NewBuilder()
		root := b.AddRoot("s")
		var copyRoots []tree.NodeID
		for i := 0; i < 4; i++ {
			spine := b.AddChild(root, "t")
			copyRoots = append(copyRoots, graft(b, spine, pat, pat.Root()))
			b.AddChild(spine, "u")
		}
		doc := b.MustBuild()
		e := New(doc)

		hits, _, err := e.Similar("k=0 maxdist=0 " + ps)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, h := range hits {
			if h.Distance != 0 {
				t.Fatalf("pattern %q: maxdist=0 returned distance %d", ps, h.Distance)
			}
			got = append(got, int(h.Node))
		}

		twig := "//" + patternToTwig(pat, pat.Root())
		pq, err := e.Prepare(LangTwig, twig)
		if err != nil {
			t.Fatalf("twig %q: %v", twig, err)
		}
		res, _, err := pq.Exec(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		var want []int
		for _, ans := range res.Answers {
			if n := int(ans[0]); !seen[n] {
				seen[n] = true
				want = append(want, n)
			}
		}
		sort.Ints(got)
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pattern %q: similar(maxdist=0) = %v, twig %q = %v", ps, got, twig, want)
		}
		// Sanity: the construction really placed 4 exact copies.
		if len(got) != len(copyRoots) {
			t.Fatalf("pattern %q: %d exact matches, want %d", ps, len(got), len(copyRoots))
		}
	}
}

// graft copies the subtree of src rooted at v under parent, returning the
// new root's id.
func graft(b *tree.Builder, parent tree.NodeID, src *tree.Tree, v tree.NodeID) tree.NodeID {
	id := b.AddChild(parent, src.Labels(v)...)
	for _, c := range src.Children(v) {
		graft(b, id, src, c)
	}
	return id
}

func TestSimilarPreparePhasesAndReprepare(t *testing.T) {
	doc := tree.MustParseSexpr("r(a(b c) a(b))")
	e := New(doc)
	pq, err := e.Prepare(LangSimilar, "k=2 a(b c)")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ph := range pq.Phases() {
		names[ph.Name] = true
	}
	for _, want := range []string{"parse", "ted", "build"} {
		if !names[want] {
			t.Fatalf("prepare phases %v missing %q", pq.Phases(), want)
		}
	}
	if pq.Clauses() != 3 {
		t.Fatalf("Clauses() = %d, want pattern size 3", pq.Clauses())
	}

	// The same compiled pattern runs on another document's engine: its
	// decomposition is reused, and the answers are the new document's.
	doc2 := tree.MustParseSexpr("r(a(b c) x)")
	res, _, err := pq.Compiled.Exec(context.Background(), New(doc2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 2 || res.Hits[0].Distance != 0 {
		t.Fatalf("hits on the second document = %+v", res.Hits)
	}
	if len(pq.Phases()) != len(names) {
		t.Fatalf("executing on a second engine changed the phases: %v", pq.Phases())
	}
}

func TestSimilarCancellation(t *testing.T) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 3000, Seed: 42})
	e := New(doc)
	pq, err := e.Prepare(LangSimilar, "k=5 a(b(c) d(e))")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pq.Exec(ctx); err == nil {
		t.Fatal("cancelled exec succeeded")
	}
}

func TestSimilarCountersMove(t *testing.T) {
	c0, s0, h0, k0 := SimilarCounters()
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 200, Seed: 3})
	e := New(doc)
	if _, _, err := e.Similar("k=3 a(b c)"); err != nil {
		t.Fatal(err)
	}
	c1, s1, h1, k1 := SimilarCounters()
	if c1 == c0 {
		t.Fatal("candidate counter did not move")
	}
	if k1 == k0 {
		t.Fatal("kernel-call counter did not move")
	}
	if s1-s0+h1-h0 == 0 {
		t.Fatal("no candidates pruned on a 200-node document with a 3-node pattern")
	}
}
