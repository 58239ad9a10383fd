// Command paperrepro regenerates the figures, tables, and worked examples of
// the paper from the library (experiment index E1-E15 of DESIGN.md) and
// prints them to stdout.  Run "paperrepro -exp all" to regenerate everything
// or "-exp E7" for a single artifact; the timing/scaling experiments proper
// live in the Go benchmarks (bench_test.go), this command reproduces the
// qualitative artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/hornsat"
	"repro/internal/labeling"
	"repro/internal/mdatalog"
	"repro/internal/rewrite"
	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/treewidth"
	"repro/internal/twigjoin"
	"repro/internal/workload"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yannakakis"
)

var experiments = map[string]func(){
	"E1":  e1Figure1,
	"E2":  e2Figure2,
	"E3":  e3Minoux,
	"E4":  e4MonadicDatalog,
	"E5":  e5Treewidth,
	"E6":  e6Yannakakis,
	"E7":  e7Table1,
	"E9":  e9XProperty,
	"E10": e10ArcConsistency,
	"E11": e11TwigJoin,
	"E12": e12Dichotomy,
	"E13": e13ComplexityMap,
	"E14": e14Streaming,
}

func main() {
	exp := flag.String("exp", "all", "experiment id (E1..E14) or 'all'")
	flag.Parse()
	if *exp == "all" {
		order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E9", "E10", "E11", "E12", "E13", "E14"}
		for _, id := range order {
			runExp(id)
		}
		return
	}
	runExp(*exp)
}

func runExp(id string) {
	f, ok := experiments[strings.ToUpper(id)]
	if !ok {
		fmt.Fprintf(os.Stderr, "paperrepro: unknown experiment %q (E8/E15 are benchmark-only; see bench_test.go)\n", id)
		os.Exit(2)
	}
	fmt.Printf("================ %s ================\n", strings.ToUpper(id))
	f()
	fmt.Println()
}

// figure1Tree is the 6-node tree of Figure 1.
func figure1Tree() *tree.Tree {
	b := tree.NewBuilder()
	n1 := b.AddRoot("n1")
	b.AddChild(n1, "n2")
	n3 := b.AddChild(n1, "n3")
	b.AddChild(n1, "n4")
	b.AddChild(n3, "n5")
	b.AddChild(n3, "n6")
	return b.MustBuild()
}

// figure2Tree is the 7-node tree of Figure 2 / Example 2.1.
func figure2Tree() *tree.Tree { return tree.MustParseSexpr("a(b(a c) a(b d))") }

func e1Figure1() {
	fmt.Println("Figure 1: an unranked tree and its FirstChild/NextSibling representation")
	t := figure1Tree()
	fmt.Println(t.Indented())
	fmt.Println(t.DOT())
}

func e2Figure2() {
	fmt.Println("Figure 2 / Example 2.1: XASR and structural joins")
	t := figure2Tree()
	x := labeling.BuildXASR(t)
	fmt.Println(x)
	desc := x.StructuralJoin(tree.Descendant, "", "")
	fmt.Printf("descendant view (theta-join on pre/post): %d pairs\n", desc.Len())
	child := x.StructuralJoin(tree.Child, "", "")
	fmt.Printf("child view (parent_pre join):             %d pairs\n", child.Len())
	closure := labeling.DescendantPairsByClosure(t)
	fmt.Printf("transitive-closure baseline:              %d pairs (same set, asymptotically slower)\n", closure.Len())
}

func e3Minoux() {
	fmt.Println("Figure 3 / Example 3.3: Minoux' linear-time Horn-SAT algorithm")
	p := hornsat.NewProgram()
	for i := 0; i < 7; i++ {
		p.NewPred("")
	}
	p.AddFact(1)
	p.AddFact(2)
	p.AddFact(3)
	p.AddClause(4, 1)
	p.AddClause(5, 3, 4)
	p.AddClause(6, 2, 5)
	ts := p.InitTrace()
	fmt.Printf("initialization: size=%v head=%v q=%v\n", ts.Size, ts.Head, ts.Queue)
	for x, rs := range ts.Rules {
		if len(rs) > 0 {
			fmt.Printf("  rules[%d] = %v\n", x, rs)
		}
	}
	m := p.Solve()
	fmt.Printf("derivation order: %v (all of 1..6 true, as in the example)\n", m.Derived)
}

func e4MonadicDatalog() {
	fmt.Println("Example 3.1 / Theorem 3.2: monadic datalog via TMNF grounding")
	prog := mdatalog.MustParse(`
P0(x) :- Lab[L](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`)
	t := tree.MustParseSexpr("a(b(L c) a(b d))")
	tm, err := prog.ToTMNF()
	must(err)
	g, err := tm.Ground(t)
	must(err)
	fmt.Printf("program size |P| = %d, |Dom| = %d, ground Horn program size = %d\n", prog.Size(), t.Len(), g.Horn.Size())
	nodes, _, err := mdatalog.Evaluate(prog, t)
	must(err)
	fmt.Printf("P (nodes with an L-labeled proper descendant): preorders %v\n", pres(t, nodes))
}

func e5Treewidth() {
	fmt.Println("Figure 4: (Child, NextSibling)-structures have tree-width 2")
	for _, spec := range []workload.TreeSpec{
		{Nodes: 15, Seed: 1}, {Nodes: 200, Seed: 2}, {Nodes: 1000, Seed: 3, MaxFanout: 8},
	} {
		t := workload.RandomTree(spec)
		g := treewidth.DataGraph(t)
		d := treewidth.Decompose(g, treewidth.MinFill)
		must(d.Validate(g))
		fmt.Printf("  %5d nodes: decomposition width %d (valid)\n", t.Len(), d.Width())
	}
}

func e6Yannakakis() {
	fmt.Println("Prop. 4.2: acyclic conjunctive queries via Yannakakis' algorithm")
	doc := workload.SiteDocument(workload.DocSpec{Items: 200, Regions: 5, DescriptionDepth: 2, Seed: 1})
	q := cq.MustParse("Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).")
	start := time.Now()
	ans, stats, err := yannakakis.EvaluateWithStats(q, doc)
	must(err)
	fmt.Printf("  document: %d nodes; query: %s\n", doc.Len(), q)
	fmt.Printf("  %d answers in %v; %d relations, %d rows materialized, %d after full reducer, %d semijoins\n",
		len(ans), time.Since(start).Round(time.Microsecond), stats.Relations, stats.MaterializedRows, stats.RowsAfterReduce, stats.SemijoinsRun)
}

func e7Table1() {
	fmt.Println("Table 1: satisfiability of R(x,z) ∧ S(y,z) ∧ x <pre y (recomputed by exhaustive search over all trees with ≤4 nodes)")
	axes := rewrite.Table1Axes()
	computed := rewrite.Table1Computed(4)
	fmt.Printf("%-14s", "R \\ S")
	for _, s := range axes {
		fmt.Printf("%-14s", s)
	}
	fmt.Println()
	for _, r := range axes {
		fmt.Printf("%-14s", r.String())
		for _, s := range axes {
			cell := "unsat"
			if computed[[2]tree.Axis{r, s}] {
				cell = "sat"
			}
			closed := "unsat"
			if rewrite.PairSatisfiable(r, s) {
				closed = "sat"
			}
			mark := ""
			if cell != closed {
				mark = " (MISMATCH)"
			}
			fmt.Printf("%-14s", cell+mark)
		}
		fmt.Println()
	}
}

func e9XProperty() {
	fmt.Println("Figure 5 / Prop. 6.6: which axes have the X-property w.r.t. which order (checked on random trees)")
	t := workload.RandomTree(workload.TreeSpec{Nodes: 16, Seed: 4})
	axes := []tree.Axis{tree.Child, tree.Descendant, tree.DescendantOrSelf, tree.NextSiblingAxis,
		tree.FollowingSibling, tree.FollowingSiblingOrSelf, tree.Following}
	fmt.Printf("%-18s %-8s %-8s %-8s  claimed order (Prop. 6.6)\n", "axis", "<pre", "<post", "<bflr")
	for _, a := range axes {
		row := fmt.Sprintf("%-18s", a)
		for _, o := range tree.AllOrders() {
			has := arccons.HasXProperty(t, a, o)
			row += fmt.Sprintf(" %-8v", has)
		}
		claim, ok := arccons.XPropertyOrder(a)
		claimed := "none"
		if ok {
			claimed = claim.String()
		}
		fmt.Printf("%s  %s\n", row, claimed)
	}
}

func e10ArcConsistency() {
	fmt.Println("Theorem 6.5 / Prop. 6.2: Boolean CQ evaluation by arc-consistency over tau1")
	doc := workload.SiteDocument(workload.DocSpec{Items: 100, Regions: 4, DescriptionDepth: 2, Seed: 2})
	q := cq.MustParse("Q :- Lab[region](r), Child+(r, i), Lab[item](i), Child+(i, k), Lab[keyword](k).")
	sat, err := arccons.SatisfiableX(q, doc)
	must(err)
	pv, ok, err := arccons.MaxPreValuation(q, doc)
	must(err)
	fmt.Printf("  query %s\n  satisfiable: %v; maximal arc-consistent pre-valuation exists: %v, total candidates %d\n",
		q, sat, ok, pv.Size())
}

func e11TwigJoin() {
	fmt.Println("Figure 6 / Prop. 6.10 / holistic twig joins: //item[name]/description//keyword")
	doc := workload.SiteDocument(workload.DocSpec{Items: 100, Regions: 4, DescriptionDepth: 2, Seed: 3})
	tw := &twigjoin.Twig{
		Labels: []string{"item", "name", "description", "keyword"},
		Parent: []int{-1, 0, 0, 2},
		Edge:   []twigjoin.EdgeKind{twigjoin.DescendantEdge, twigjoin.ChildEdge, twigjoin.ChildEdge, twigjoin.DescendantEdge},
	}
	ms, err := twigjoin.MatchTwig(doc, tw)
	must(err)
	ans, err := arccons.EnumerateAcyclic(tw.ToCQ(), doc)
	must(err)
	fmt.Printf("  twig %s: %d matches by PathStack decomposition, %d by arc-consistency enumeration (must agree)\n",
		tw, len(ms), len(ans))
}

func e12Dichotomy() {
	fmt.Println("Theorem 6.8: the tractability dichotomy over axis signatures")
	sets := [][]tree.Axis{
		{tree.Descendant},
		{tree.Descendant, tree.DescendantOrSelf},
		{tree.Following},
		{tree.Child, tree.NextSiblingAxis, tree.FollowingSibling, tree.FollowingSiblingOrSelf},
		{tree.Child, tree.Descendant},
		{tree.Descendant, tree.Following},
		{tree.Child, tree.Following},
	}
	for _, axes := range sets {
		sig, order := arccons.ClassifySignature(axes)
		verdict := "NP-complete (no common X-property order)"
		if sig != arccons.SignatureNone {
			verdict = fmt.Sprintf("in PTime via %v w.r.t. %v", sig, order)
		}
		fmt.Printf("  %-60v %s\n", axes, verdict)
	}
}

func e13ComplexityMap() {
	fmt.Println("Figure 7 (empirical slice): the same query through different language evaluators")
	doc := workload.SiteDocument(workload.DocSpec{Items: 300, Regions: 6, DescriptionDepth: 2, Seed: 5})
	xq := "//item[name]/description//keyword"
	timeIt := func(name string, f func() int) {
		start := time.Now()
		n := f()
		fmt.Printf("  %-38s %6d results  %10v\n", name, n, time.Since(start).Round(time.Microsecond))
	}
	expr := xpath.MustParse(xq)
	timeIt("Core XPath, set-at-a-time", func() int { return len(xpath.Query(expr, doc)) })
	timeIt("Core XPath, naive semantics", func() int { return len(xpath.QueryNaive(expr, doc)) })
	q, err := xpath.ToCQ(expr)
	must(err)
	timeIt("as CQ, arc-consistency enumeration", func() int {
		ans, err := arccons.EnumerateAcyclic(q, doc)
		must(err)
		return len(ans)
	})
	timeIt("as CQ, Yannakakis", func() int {
		ans, err := yannakakis.Evaluate(q, doc)
		must(err)
		return len(ans)
	})
	timeIt("as CQ, naive backtracking", func() int { return len(cq.EvaluateNaive(q, doc)) })
	prog := `Desc(x) :- Lab[description](x).
Under(x) :- Desc(y), Child(y, x).
Under(x) :- Under(y), Child(y, x).
K(x) :- Under(x), Lab[keyword](x).
?- K.`
	timeIt("as monadic datalog, Horn-SAT", func() int {
		nodes, _, err := mdatalog.Evaluate(mdatalog.MustParse(prog), doc)
		must(err)
		return len(nodes)
	})
}

func e14Streaming() {
	fmt.Println("Section 7 streaming bounds: memory scales with document depth, not size")
	m := stream.MustCompile(xpath.MustParse("//a//a"))
	for _, shape := range []struct {
		name string
		doc  *tree.Tree
	}{
		{"wide (depth 2)", workload.WideTree(50_000, "a")},
		{"random (shallow)", workload.RandomTree(workload.TreeSpec{Nodes: 50_000, Seed: 1, Alphabet: []string{"a"}})},
		{"path (depth = size)", workload.PathTree(50_000, "a")},
	} {
		stats, err := m.Run(xmldoc.Events(shape.doc), nil)
		must(err)
		fmt.Printf("  %-22s size %6d  depth %6d  max state cells %7d  matches %d\n",
			shape.name, shape.doc.Len(), stats.MaxDepth, stats.MaxStateCells, stats.Matches)
	}
}

func pres(t *tree.Tree, ns []tree.NodeID) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = t.Pre(n)
	}
	return out
}

func must(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}
