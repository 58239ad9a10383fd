// Package repro holds the top-level benchmark harness: one benchmark family
// per experiment of DESIGN.md / EXPERIMENTS.md, each regenerating the
// measurement behind a figure, table, or complexity claim of the paper.
// Run with:  go test -bench=. -benchmem
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/arccons"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/hornsat"
	"repro/internal/index"
	"repro/internal/labeling"
	"repro/internal/mdatalog"
	"repro/internal/poolcheck"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/stream"
	"repro/internal/ted"
	"repro/internal/tree"
	"repro/internal/treediff"
	"repro/internal/treewidth"
	"repro/internal/twigjoin"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yannakakis"
)

func TestMain(m *testing.M) {
	poolcheck.Main(m, bitset.Outstanding, ted.Outstanding, arccons.Outstanding, mdatalog.Outstanding)
}

// --- E2: structural joins over the XASR (Figure 2 / Example 2.1) -----------

func BenchmarkE2StructuralJoin(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		t := workload.RandomTree(workload.TreeSpec{Nodes: n, Seed: 1, Alphabet: []string{"a", "b", "c", "d", "e"}})
		x := labeling.BuildXASR(t)
		b.Run(fmt.Sprintf("merge/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.StructuralJoin(tree.Descendant, "a", "b")
			}
		})
		b.Run(fmt.Sprintf("nestedloop/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.StructuralJoinNestedLoop(tree.Descendant, "a", "b")
			}
		})
	}
	// The transitive-closure baseline is only feasible on small trees.
	small := workload.RandomTree(workload.TreeSpec{Nodes: 1000, Seed: 1, Alphabet: []string{"a", "b"}})
	b.Run("closure-baseline/n=1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			labeling.DescendantPairsByClosure(small)
		}
	})
}

// --- E3: Minoux' linear-time Horn-SAT (Figure 3) ---------------------------

func randomHorn(nPreds, nClauses int, seed int64) *hornsat.Program {
	p := hornsat.NewProgramWithPreds(nPreds)
	s := seed
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		v := int(s % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	for i := 0; i < nClauses; i++ {
		head := hornsat.Pred(next(nPreds))
		k := next(3)
		body := make([]hornsat.Pred, k)
		for j := range body {
			body[j] = hornsat.Pred(next(nPreds))
		}
		p.AddClause(head, body...)
	}
	for i := 0; i < nPreds/20+1; i++ {
		p.AddFact(hornsat.Pred(next(nPreds)))
	}
	return p
}

func BenchmarkE3HornSAT(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 400_000} {
		p := randomHorn(n/2, n, 7)
		b.Run(fmt.Sprintf("minoux/clauses=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Solve()
			}
		})
	}
	p := randomHorn(5_000, 10_000, 7)
	b.Run("naive-fixpoint/clauses=10000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SolveNaive()
		}
	})
}

// --- E4: monadic datalog in O(|P| * |Dom|) (Theorem 3.2) -------------------

const ancestorProgram = `
P0(x) :- Lab[L](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`

func BenchmarkE4MonadicDatalog(b *testing.B) {
	prog := mdatalog.MustParse(ancestorProgram)
	for _, n := range []int{1_000, 10_000, 100_000} {
		t := workload.RandomTree(workload.TreeSpec{Nodes: n, Seed: 2, Alphabet: []string{"a", "b", "L"}})
		b.Run(fmt.Sprintf("hornSAT/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mdatalog.Evaluate(prog, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same theorem without the ground program: the TMNF rules compiled
	// once, solved on the tree by per-component sweeps (what treeqd executes).
	tm, err := prog.ToTMNF()
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := tm.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		t := workload.RandomTree(workload.TreeSpec{Nodes: n, Seed: 2, Alphabet: []string{"a", "b", "L"}})
		b.Run(fmt.Sprintf("compiled/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compiled.SolveCtx(context.Background(), t, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	small := workload.RandomTree(workload.TreeSpec{Nodes: 60, Seed: 2, Alphabet: []string{"a", "b", "L"}})
	b.Run("naive-fixpoint/n=60", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mdatalog.EvaluateNaive(prog, small); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E5: tree-width of data graphs (Figure 4) -------------------------------

func BenchmarkE5Treewidth(b *testing.B) {
	for _, n := range []int{200, 1000, 4000} {
		t := workload.RandomTree(workload.TreeSpec{Nodes: n, Seed: 3})
		g := treewidth.DataGraph(t)
		b.Run(fmt.Sprintf("min-fill/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := treewidth.Decompose(g, treewidth.MinFill)
				if d.Width() > 2 {
					b.Fatalf("width %d", d.Width())
				}
			}
		})
	}
}

// --- E6: acyclic CQs via Yannakakis (Theorem 4.1 / Prop. 4.2) ---------------

func twigCQ() *cq.Query {
	return cq.MustParse("Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).")
}

func BenchmarkE6Yannakakis(b *testing.B) {
	q := twigCQ()
	for _, items := range []int{100, 400, 1600} {
		doc := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 4})
		b.Run(fmt.Sprintf("yannakakis/items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := yannakakis.Evaluate(q, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	small := workload.SiteDocument(workload.DocSpec{Items: 100, Regions: 6, DescriptionDepth: 2, Seed: 4})
	b.Run("naive-backtracking/items=100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cq.EvaluateNaive(q, small)
		}
	})
}

// --- E8: rewriting CQs into acyclic unions (Theorem 5.1) --------------------

func starQuery(k int) *cq.Query {
	labels := []string{"a", "b", "c", "d", "e"}
	q := &cq.Query{Head: []cq.Variable{"z"}}
	q.Labels = append(q.Labels, cq.LabelAtom{Var: "z", Label: "e"})
	for i := 0; i < k; i++ {
		v := cq.Variable(fmt.Sprintf("x%d", i))
		q.Labels = append(q.Labels, cq.LabelAtom{Var: v, Label: labels[i%4]})
		q.Axes = append(q.Axes, cq.AxisAtom{Axis: tree.Descendant, From: v, To: "z"})
	}
	return q
}

func BenchmarkE8Rewrite(b *testing.B) {
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 400, Seed: 5, Alphabet: []string{"a", "b", "c", "d", "e"}})
	for _, k := range []int{2, 3, 4} {
		q := starQuery(k)
		b.Run(fmt.Sprintf("toAcyclicUnion/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rewrite.ToAcyclicUnion(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("evaluateViaRewrite/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rewrite.EvaluateViaRewrite(q, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: arc-consistency / X-property evaluation (Theorem 6.5) -------------

func BenchmarkE10ArcConsistency(b *testing.B) {
	q := cq.MustParse("Q :- Lab[region](r), Child+(r, i), Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(r, k).")
	for _, items := range []int{100, 400} {
		doc := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 6})
		b.Run(fmt.Sprintf("satisfiableX/items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := arccons.SatisfiableX(q, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive-backtracking/items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cq.Satisfiable(q, doc)
			}
		})
	}
}

// --- E11: holistic twig joins vs. the generic routes (Prop. 6.10) -----------

func BenchmarkE11TwigJoin(b *testing.B) {
	tw := &twigjoin.Twig{
		Labels: []string{"item", "name", "description", "keyword"},
		Parent: []int{-1, 0, 0, 2},
		Edge:   []twigjoin.EdgeKind{twigjoin.DescendantEdge, twigjoin.ChildEdge, twigjoin.ChildEdge, twigjoin.DescendantEdge},
	}
	q := tw.ToCQ()
	for _, items := range []int{200, 800} {
		doc := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 7})
		b.Run(fmt.Sprintf("twigjoin/items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := twigjoin.MatchTwig(doc, tw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("yannakakis/items=%d", items), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := yannakakis.Evaluate(q, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinKernel times the six join_mix queries on the interval-join
// kernel at 150 and 1,500 items, warm (label masks and the rank view built):
// the per-query view of what bench/run.sh --workload join_mix measures end to
// end.  TestJoinScalingLinear enforces the 10x-items growth on counts.
func BenchmarkJoinKernel(b *testing.B) {
	ctx := context.Background()
	for _, items := range []int{150, 1500} {
		doc, ix := joinMixDocument(items)
		for _, q := range joinMixQueries {
			u := joinMixUnion(b, q.lang, q.text)
			b.Run(fmt.Sprintf("items=%d/%s", items, q.name), func(b *testing.B) {
				b.ReportAllocs()
				if _, err := u.EvaluateCtx(ctx, doc, ix); err != nil { // warm the index
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := u.EvaluateCtx(ctx, doc, ix); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScanRoutes times the linear-scan routes of scan_mix at 150 and
// 1,500 items, on parsed documents as the daemon holds them: a warm Exec of
// the stream plan //item//keyword (axis images, as XPath runs it), a warm
// Exec of the ancestor datalog plan (one backward sweep over the preorder
// ranks), that plan's Prepare (parse + TMNF + compile: no document is read,
// so the two sizes cost the same), and a warm Exec of the XPath plan
// //item[name]/description//keyword (axis images on the preorder-rank view).
// TestScanScalingLinear enforces the counts.
func BenchmarkScanRoutes(b *testing.B) {
	ctx := context.Background()
	stream, datalog, xp := scanMixQueries[0], scanMixQueries[2], scanMixQueries[3]
	for _, items := range []int{150, 1500} {
		eng := scanMixEngine(items)
		for _, r := range []struct{ route, lang, text string }{
			{"stream", stream.lang, stream.text},
			{"datalog", datalog.lang, datalog.text},
			{"xpath", xp.lang, xp.text},
		} {
			b.Run(fmt.Sprintf("%s/items=%d", r.route, items), func(b *testing.B) {
				b.ReportAllocs()
				pq, err := eng.Prepare(r.lang, r.text)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := pq.Exec(ctx); err != nil { // warm the scratch
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := pq.Exec(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("datalog-prepare/items=%d", items), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Prepare(datalog.lang, datalog.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13: Core XPath evaluation strategies (Figure 7, combined complexity) --

func BenchmarkE13XPath(b *testing.B) {
	queries := map[string]string{
		"twig":     "//item[name]/description//keyword",
		"negation": "//item[not(mailbox)]/name",
		"union":    "//keyword | //emailaddress",
	}
	for _, items := range []int{500, 2000} {
		doc := workload.SiteDocument(workload.DocSpec{Items: items, Regions: 6, DescriptionDepth: 2, Seed: 8})
		for name, qs := range queries {
			expr := xpath.MustParse(qs)
			b.Run(fmt.Sprintf("set-at-a-time/%s/items=%d", name, items), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					xpath.Query(expr, doc)
				}
			})
			b.Run(fmt.Sprintf("naive/%s/items=%d", name, items), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					xpath.QueryNaive(expr, doc)
				}
			})
		}
	}
}

// --- E14: streaming forward XPath, memory Theta(depth) ----------------------

func BenchmarkE14Streaming(b *testing.B) {
	m := stream.MustCompile(xpath.MustParse("//item//keyword"))
	shapes := map[string]*tree.Tree{
		"wide-50k": workload.WideTree(50_000, "item"),
		"site-50k": workload.SiteDocument(workload.DocSpec{Items: 4200, Regions: 6, DescriptionDepth: 2, Seed: 9}),
		"path-50k": workload.PathTree(50_000, "item"),
	}
	for name, doc := range shapes {
		events := xmldoc.Events(doc)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(events, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: the dichotomy classifier is constant-time bookkeeping -------------

func BenchmarkE12Classify(b *testing.B) {
	sets := [][]tree.Axis{
		{tree.Descendant, tree.DescendantOrSelf},
		{tree.Following},
		{tree.Child, tree.NextSiblingAxis, tree.FollowingSibling},
		{tree.Child, tree.Descendant},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			arccons.ClassifySignature(s)
		}
	}
}

// --- Corpus and HTTP fixtures ------------------------------------------------

// serviceCorpus is a corpus of docs small site documents (doc00, doc01, ...).
func serviceCorpus(b *testing.B, docs int) *service.Service {
	b.Helper()
	svc := service.New()
	for i := 0; i < docs; i++ {
		doc := workload.SiteDocument(workload.DocSpec{Items: 150, Regions: 6, DescriptionDepth: 2, Seed: int64(30 + i)})
		if err := svc.Add(fmt.Sprintf("doc%02d", i), doc); err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

// serverCorpus stands up the HTTP front-end over serviceCorpus(b, docs).
func serverCorpus(b *testing.B, docs int) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(server.New(serviceCorpus(b, docs)))
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// --- Multi-label workloads: the label-complete XASR fast path --------------
//
// The BenchmarkMultiLabel* family measures multi-labeled (attribute-labeled)
// documents — the treegen -shape site workload — on the indexed evaluators
// versus the unindexed fallback those documents used to be demoted to when
// the XASR knew only primary labels.  The indexed side must win; that gap is
// the whole point of indexing every label.

// multiLabelSite is the shared site-shaped corpus document (multi-labeled:
// every item and region carries @id/@name attribute labels).
func multiLabelSite() *tree.Tree {
	return workload.SiteDocument(workload.DocSpec{Items: 400, Regions: 6, DescriptionDepth: 2, Seed: 71})
}

// BenchmarkMultiLabelYannakakis sets the forced Yannakakis baseline over a
// shared index (cached label lists) against a nil one, which scans the tree
// for every atom's candidates on every call.  A selective point lookup over
// an attribute label ("which region holds item7?"): both walk every region's
// subtree per call.
func BenchmarkMultiLabelYannakakis(b *testing.B) {
	doc := multiLabelSite()
	q := cq.MustParse("Q(r) :- Lab[region](r), Child+(r, x), Lab[@id=item7](x).")
	b.Run("indexed", func(b *testing.B) {
		ix := index.New(doc)
		if _, err := yannakakis.EvaluateIndexed(q, doc, ix); err != nil { // warm the label lists
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := yannakakis.EvaluateIndexed(q, doc, ix); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nil-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := yannakakis.EvaluateIndexed(q, doc, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiLabelXPath sets a shared index (warm label masks and
// preorder-rank view) against a nil one, which indexes the tree on every call.
// workload.SiteDocument trees are not Identity — the generator adds children
// out of document order — so both sides move every label mask through Pre: a
// micro-benchmark on an unparsed document measures the shuffle path, not the
// daemon's.  BenchmarkScanRoutes' xpath rows run on parsed documents.
func BenchmarkMultiLabelXPath(b *testing.B) {
	doc := multiLabelSite()
	expr := xpath.MustParse("//item/description//keyword")
	b.Run("view", func(b *testing.B) {
		ix := index.New(doc)
		xpath.QueryIndexed(expr, doc, ix) // warm the masks and the view
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(xpath.QueryIndexed(expr, doc, ix)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
	b.Run("nil-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(xpath.QueryIndexed(expr, doc, nil)) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

func BenchmarkMultiLabelTwigPath(b *testing.B) {
	doc := multiLabelSite()
	path, err := twigjoin.Path([]string{"item", "keyword"}, []twigjoin.EdgeKind{twigjoin.DescendantEdge})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("indexed", func(b *testing.B) {
		ix := index.New(doc)
		if _, err := twigjoin.MatchPathIndexed(doc, path, ix); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := twigjoin.MatchPathIndexed(doc, path, ix); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := twigjoin.MatchPath(doc, path); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Similarity: top-k subtree search (LangSimilar, PR 8) -------------------

func BenchmarkSimilarTopK(b *testing.B) {
	// The ranked route's headline claim: size / label-histogram lower-bound
	// pruning admits only candidates that can still make the k-heap, so the
	// pruned evaluator beats the prune-free baseline (Naive strategy: a TED
	// kernel call per candidate subtree) by well over the 3x acceptance bar.
	doc := workload.RandomTree(workload.TreeSpec{Nodes: 4000, Seed: 808})
	const q = "k=10 a(b c)"
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opts []core.Option
	}{
		{"pruned", nil},
		{"exhaustive", []core.Option{core.WithStrategy(core.Naive)}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := core.New(doc, tc.opts...)
			pq, err := eng.Prepare(core.LangSimilar, q)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pq.Exec(ctx); err != nil { // warm the TED view
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pq.Exec(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Incremental updates: diff-then-patch vs. full rebuild (PR 9) -----------

// updateBenchRev builds a deterministic ~10k-node site-shaped document; the
// two revisions differ in exactly one deep leaf label (markA vs markB) — a
// shape-preserving single-node relabel whose touched labels are disjoint from
// every plan BenchmarkUpdateSmallEdit keeps warm.
func updateBenchRev(rev int) *tree.Tree {
	bld := tree.NewBuilder()
	root := bld.AddRoot("site")
	const items = 2500
	for i := 0; i < items; i++ {
		it := bld.AddChild(root, "item")
		bld.SetText(bld.AddChild(it, "name"), fmt.Sprintf("item%d", i))
		bld.AddChild(bld.AddChild(it, "description"), "keyword")
	}
	mark := "markA"
	if rev%2 == 1 {
		mark = "markB"
	}
	bld.AddChild(root, mark)
	return bld.MustBuild()
}

func BenchmarkUpdateSmallEdit(b *testing.B) {
	// The incremental-maintenance headline: a 1-node edit in a 10k-node
	// document, measured as time-to-fresh-answer — UpdateDoc plus re-running
	// the warm query battery against the new revision.  Engine construction
	// and index caches are lazy, so a bare rebuild only defers its cost to
	// the next query; timing update+query charges each arm what a client
	// actually waits.  "patched" (ratio 1) carries the untouched label
	// artifacts into the new index and keeps every cached plan; "rebuild"
	// (ratio 0) starts from a cold index.
	revs := [2]*tree.Tree{updateBenchRev(0), updateBenchRev(1)}
	ctx := context.Background()
	warm := []struct{ lang, text string }{
		{core.LangXPath, "//item[name]/description//keyword"},
		{core.LangDatalog, "P0(x) :- Lab[name](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."},
	}
	for _, tc := range []struct {
		name  string
		ratio float64
	}{
		{"patched", 1},
		{"rebuild", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc := service.New(service.WithPatchRatio(tc.ratio))
			if err := svc.Add("doc", revs[0]); err != nil {
				b.Fatal(err)
			}
			for _, q := range warm {
				if _, _, err := svc.Query(ctx, "doc", q.lang, q.text); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := svc.UpdateDoc("doc", revs[(i+1)%2])
				if err != nil {
					b.Fatal(err)
				}
				if o.Patched != (tc.ratio > 0) {
					b.Fatalf("update took the %s path in the %s arm", o.Mode(), tc.name)
				}
				for _, q := range warm {
					if _, _, err := svc.Query(ctx, "doc", q.lang, q.text); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			if st := svc.Stats(); tc.ratio > 0 && st.PlansSkippedByLabelSet == 0 {
				b.Fatal("patched arm never counted a label-disjoint plan")
			}
		})
	}
}

func BenchmarkSimilarCorpusRanked(b *testing.B) {
	// Corpus-wide ranked fan-out through the /v1 envelope: per-document
	// k-heaps merged into one globally ordered top-k, end to end over HTTP.
	ts := serverCorpus(b, 8)
	body := []byte(`{"lang":"similar","query":"k=5 description(keyword)","limit":5}`)
	benchPost(b, ts.URL+"/v1/corpus/query", body) // warm per-doc plans
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/corpus/query", body)
	}
}

// --- Ingest: the write path's parse and a text-only PUT ----------------------

// updateChurnQueries are the five reads of the update_churn benchmark workload
// (bench/treeload/workload.go); a live document holds one warm plan for each.
var updateChurnQueries = []struct{ lang, text string }{
	{core.LangXPath, "//item[name]/description//keyword"},
	{core.LangXPath, "//item[not(mailbox)]/name"},
	{core.LangDatalog, "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."},
	{core.LangStream, "//item//keyword"},
	{core.LangSimilar, "k=10 description(parlist(listitem(keyword text)))"},
}

// withText returns a copy of t (whose NodeIDs are preorder ranks) in which
// node n carries the given text.
func withText(t *tree.Tree, n tree.NodeID, text string) *tree.Tree {
	b := tree.NewBuilder()
	b.Reserve(t.Len())
	for i := 0; i < t.Len(); i++ {
		v := tree.NodeID(i)
		var id tree.NodeID
		if p := t.Parent(v); p == tree.InvalidNode {
			id = b.AddRoot(t.Labels(v)...)
		} else {
			id = b.AddChild(p, t.Labels(v)...)
		}
		if v == n {
			b.SetText(id, text)
		} else if txt := t.Text(v); txt != "" {
			b.SetText(id, txt)
		}
	}
	return b.MustBuild()
}

func BenchmarkIngest(b *testing.B) {
	// What a PUT pays before and around the index splice.  "parse" is
	// xmldoc.Parse alone on an update_churn document; "parse-dict" is the
	// parse a PUT makes, against the previous version's dictionary;
	// "diff-text-edit" is treediff.Diff between two such versions, one
	// keyword's text apart; "update-text-edit" is the whole service-side write
	// (parse, diff, patch, warm-plan rebind) of that edit, with the workload's
	// five plans warm — the edit every plan mentions and none has to be
	// re-prepared for.
	ctx := context.Background()
	for _, items := range []int{400, 1000} {
		doc, _ := joinMixDocument(items)
		keywords := doc.NodesWithLabel("keyword")
		revs := [2]string{
			xmldoc.Serialize(doc, false),
			xmldoc.Serialize(withText(doc, keywords[len(keywords)/2], "edited"), false),
		}
		b.Run(fmt.Sprintf("parse/items=%d", items), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(revs[0])))
			for i := 0; i < b.N; i++ {
				if _, err := xmldoc.Parse(revs[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parse-dict/items=%d", items), func(b *testing.B) {
			// What a PUT parses: the edited revision against the dictionary of
			// the version it replaces, so every label already has a code.
			prev := xmldoc.MustParse(revs[0]).NextDict()
			b.ReportAllocs()
			b.SetBytes(int64(len(revs[1])))
			for i := 0; i < b.N; i++ {
				if _, err := xmldoc.ParseDict(revs[1], prev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("diff-text-edit/items=%d", items), func(b *testing.B) {
			prev := xmldoc.MustParse(revs[0])
			next, err := xmldoc.ParseDict(revs[1], prev.NextDict())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sc, ok := treediff.Diff(prev, next); !ok || sc.Kind != treediff.KindRelabel || sc.OldLen != 1 {
					b.Fatalf("diff of a text edit: %+v, %v", sc, ok)
				}
			}
		})
		b.Run(fmt.Sprintf("update-text-edit/items=%d", items), func(b *testing.B) {
			svc := service.New()
			if err := svc.AddXML("doc", revs[0]); err != nil {
				b.Fatal(err)
			}
			for _, q := range updateChurnQueries {
				if _, _, err := svc.Query(ctx, "doc", q.lang, q.text); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := svc.UpdateDocXML("doc", revs[(i+1)%2])
				if err != nil {
					b.Fatal(err)
				}
				if !o.Patched || o.PlansCarried != len(updateChurnQueries) {
					b.Fatalf("text edit outcome %+v, want a patch carrying %d plans", o, len(updateChurnQueries))
				}
			}
		})
	}
}
