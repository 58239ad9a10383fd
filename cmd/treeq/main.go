// Command treeq evaluates queries over an XML document using the core
// engine: Core XPath expressions, conjunctive queries in datalog syntax, and
// monadic datalog programs.  It prints the selected nodes (preorder index
// and label) and, with -plan, the technique the planner chose.
//
// Queries run through the engine's prepare/execute pipeline: the query is
// compiled once and executed -repeat times (default 1), so with -timing the
// compile-once/run-many speedup is directly observable, and the index,
// similarity and pool sections of the stats table follow under the keys
// /v1/statusz uses.
//
// With -corpus DIR the command switches to corpus mode: every *.xml file in
// the directory is loaded into the corpus query service and the query fans
// out to all documents through the service's plan cache, printing one
// match-count line per document.  -workers sizes the fan-out pool; -repeat
// repeats the fan-out, so -timing (every section of the service's stats
// table) shows the plan cache converting repeated one-shot calls into pure
// executions.
//
// In corpus mode, -update FILE demonstrates the live-update path: after the
// first fan-out pass the corpus document named after FILE's base name is
// replaced by FILE's contents (the engine swap compiles nothing: the cached
// plans serve the new version as they are), and the fan-out runs again
// against it.  With -timing the service counters show no second miss.
//
// With -similar PATTERN the query is a top-k subtree similarity search: the
// pattern is an s-expression tree and the result is the k closest subtrees by
// tree edit distance, printed as ranked "node distance" lines (single
// document) or "doc node distance" lines (corpus mode, merged into a
// corpus-wide top-k).  -k overrides the result count; maxdist=N can be
// embedded in the pattern text ("maxdist=2 a(b c)").
//
// Examples:
//
//	treeq -file doc.xml -xpath '//item[name]/description//keyword'
//	treeq -file doc.xml -cq 'Q(x) :- Lab[item](x), Child+(x, y), Lab[keyword](y).'
//	treeq -file doc.xml -datalog program.dl
//	treeq -file doc.xml -stream '//item//keyword' -repeat 100 -timing
//	treeq -file doc.xml -similar 'description(keyword)' -k 5
//	treeq -corpus docs/ -xpath '//keyword' -workers 4 -timing
//	treeq -corpus docs/ -similar 'item(name description)' -k 3 -limit 10
//	treeq -corpus docs/ -xpath '//keyword' -update new/books.xml -timing
//	cat doc.xml | treeq -xpath '//a' -strategy naive
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tree"
)

// strategies are the forced -strategy values, by name.
var strategies = map[string]core.Strategy{
	"naive":           core.Naive,
	"yannakakis":      baseline.Yannakakis,
	"arc-consistency": core.ArcConsistency,
	"rewrite":         core.RewriteFirst,
}

func main() {
	var (
		file     = flag.String("file", "", "XML document to query (default: stdin)")
		corpus   = flag.String("corpus", "", "directory of *.xml documents to query as a corpus (overrides -file)")
		xpathQ   = flag.String("xpath", "", "Core XPath query to evaluate")
		cqQ      = flag.String("cq", "", "conjunctive query (datalog syntax) to evaluate")
		datalogF = flag.String("datalog", "", "file containing a monadic datalog program")
		twigQ    = flag.String("twig", "", "conjunctive //-rooted XPath to run through the twig route")
		streamQ  = flag.String("stream", "", "downward path query of the streamable fragment (run set-at-a-time on the stored document)")
		similarQ = flag.String("similar", "", "s-expression pattern for top-k subtree similarity search (tree edit distance)")
		topK     = flag.Int("k", 0, "similarity mode: number of ranked results (0 = language default)")
		strategy = flag.String("strategy", "auto", "strategy: auto, naive, yannakakis, arc-consistency, rewrite")
		showPlan = flag.Bool("plan", false, "print the evaluation plan")
		repeat   = flag.Int("repeat", 1, "execute the prepared query N times (compile once)")
		timing   = flag.Bool("timing", false, "print prepare/exec timings and cache statistics")
		workers  = flag.Int("workers", 0, "corpus mode: fan-out worker-pool width (0 = GOMAXPROCS)")
		docTO    = flag.Duration("doc-timeout", 0, "corpus mode: per-document execution budget (0 = none)")
		aggLimit = flag.Int("limit", 0, "corpus mode: print the merged (doc, node) aggregate capped at N matches (0 = per-document counts)")
		updateF  = flag.String("update", "", "corpus mode: after the first pass, update the document named after FILE's base name from FILE and re-run the fan-out")
	)
	flag.Parse()

	var opts []core.Option
	if *strategy != "auto" {
		s, ok := strategies[*strategy]
		if !ok {
			fatal(fmt.Errorf("unknown strategy %q", *strategy))
		}
		opts = append(opts, core.WithStrategy(s))
	}

	lang, text := "", ""
	switch {
	case *xpathQ != "":
		lang, text = core.LangXPath, *xpathQ
	case *cqQ != "":
		lang, text = core.LangCQ, *cqQ
	case *twigQ != "":
		lang, text = core.LangTwig, *twigQ
	case *streamQ != "":
		lang, text = core.LangStream, *streamQ
	case *similarQ != "":
		lang, text = core.LangSimilar, *similarQ
		if *topK > 0 {
			text = fmt.Sprintf("k=%d %s", *topK, text)
		}
	case *datalogF != "":
		prog, err := os.ReadFile(*datalogF)
		if err != nil {
			fatal(err)
		}
		lang, text = core.LangDatalog, string(prog)
	default:
		fmt.Fprintln(os.Stderr, "treeq: one of -xpath, -cq, -twig, -stream, -similar, -datalog is required")
		flag.Usage()
		os.Exit(2)
	}
	if *repeat < 1 {
		fatal(fmt.Errorf("-repeat must be >= 1, got %d", *repeat))
	}

	if *corpus != "" {
		runCorpus(*corpus, lang, text, opts, corpusRun{
			workers: *workers, repeat: *repeat,
			showPlan: *showPlan, timing: *timing,
			docTimeout: *docTO, aggLimit: *aggLimit,
			updateFile: *updateF,
		})
		return
	}
	if *updateF != "" {
		fatal(fmt.Errorf("-update requires corpus mode (-corpus DIR)"))
	}

	src, err := readInput(*file)
	if err != nil {
		fatal(err)
	}
	eng, err := core.FromXML(src, opts...)
	if err != nil {
		fatal(err)
	}
	doc := eng.Document()

	pq, err := eng.Prepare(lang, text)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	var (
		res  *core.Result
		plan *core.Plan
	)
	for i := 0; i < *repeat; i++ {
		res, plan, err = pq.Exec(ctx)
		if err != nil {
			fatal(err)
		}
	}
	printPlan(*showPlan, plan)

	switch lang {
	case core.LangSimilar:
		// Ranked: one line per hit, closest first.
		for _, h := range res.Hits {
			fmt.Printf("%d(%s)\t%d\n", doc.Pre(h.Node), doc.Label(h.Node), h.Distance)
		}
		fmt.Fprintf(os.Stderr, "%d hits\n", len(res.Hits))
	case core.LangCQ, core.LangTwig:
		for _, a := range res.Answers {
			for i, n := range a {
				if i > 0 {
					fmt.Print("\t")
				}
				fmt.Printf("%d(%s)", doc.Pre(n), doc.Label(n))
			}
			fmt.Println()
		}
		fmt.Fprintf(os.Stderr, "%d answers\n", len(res.Answers))
	default:
		for _, n := range res.Nodes {
			printNode(doc, n)
		}
		fmt.Fprintf(os.Stderr, "%d nodes\n", len(res.Nodes))
	}

	if *timing {
		stats := pq.Stats()
		fmt.Fprintf(os.Stderr, "timing: prepare=%v execs=%d total-exec=%v avg-exec=%v\n",
			stats.PrepareTime, stats.Execs, stats.TotalExec, stats.AvgExec())
		printStats(service.EngineSnapshot(eng), "index", "similar", "pools")
	}
}

// printStats prints the named sections of the stats table read from sn, as
// /v1/statusz names them: one "section: key=value ..." line each.
func printStats(sn *service.Snapshot, sections ...string) {
	_ = service.WriteText(os.Stderr, service.StatTable(nil, nil).Rows, sn, sections...)
}

// corpusRun bundles the corpus-mode knobs.
type corpusRun struct {
	workers, repeat  int
	showPlan, timing bool
	docTimeout       time.Duration
	aggLimit         int
	updateFile       string
}

// runCorpus loads every *.xml file under dir into a corpus service and fans
// the query out to all documents, -repeat times.  With -limit it prints the
// merged (document, node) aggregate instead of per-document counts; with
// -doc-timeout every document runs under its own execution budget.
func runCorpus(dir, lang, text string, engOpts []core.Option, run corpusRun) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.xml"))
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("no *.xml documents under %q", dir))
	}
	svc := service.New(
		service.WithWorkers(run.workers),
		service.WithEngineOptions(engOpts...),
	)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			fatal(err)
		}
		if err := svc.AddXML(filepath.Base(p), string(data)); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	var copts []service.CorpusOption
	if run.docTimeout > 0 {
		copts = append(copts, service.WithDocTimeout(run.docTimeout))
	}
	pass := func() int {
		var results []service.DocResult
		for i := 0; i < run.repeat; i++ {
			results = svc.QueryCorpus(ctx, lang, text, copts...)
		}
		return printCorpusResults(results, lang, run)
	}

	failed := pass()
	if run.updateFile != "" {
		// Live-update path: swap the named document in place (cached plans
		// stay warm) and fan out again against the new version.
		data, err := os.ReadFile(run.updateFile)
		if err != nil {
			fatal(err)
		}
		name := filepath.Base(run.updateFile)
		outcome, err := svc.UpdateDocXML(name, string(data))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "treeq: updated %s to version %d, %s/%s (%d cached plans carried, %d of them label-disjoint from the edit)\n",
			name, outcome.Version, outcome.Mode(), outcome.Kind, outcome.PlansCarried, outcome.PlansSkipped)
		failed += pass()
	}
	if run.timing {
		printStats(svc.Snapshot(), "service", "index", "updates", "similar", "pools")
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// printCorpusResults prints one fan-out pass (per-document counts, or the
// merged aggregate with -limit) and returns the number of failed documents.
func printCorpusResults(results []service.DocResult, lang string, run corpusRun) int {
	failed := 0
	if run.aggLimit > 0 {
		agg := service.Aggregate(results, run.aggLimit)
		failed = len(agg.Failed)
		for _, f := range agg.Failed {
			fmt.Fprintf(os.Stderr, "treeq: %s: %v\n", f.Doc, f.Err)
		}
		// Ranked hits come out of the aggregate as the corpus-wide top-k in
		// (distance, doc, node) order.
		shown := len(agg.Hits)
		for _, h := range agg.Hits {
			fmt.Printf("%s\t%d\t%d\n", h.Doc, h.Node, h.Distance)
		}
		for _, p := range agg.Parts {
			for _, n := range p.Nodes {
				fmt.Printf("%s\t%d\n", p.Doc, n)
			}
			for _, a := range p.Answers {
				fmt.Printf("%s\t%v\n", p.Doc, a)
			}
			shown += len(p.Nodes) + len(p.Answers)
		}
		fmt.Fprintf(os.Stderr, "%d documents, %d failed, %d matches (%d shown, truncated=%v)\n",
			agg.Docs, failed, agg.Total, shown, agg.Truncated)
		return failed
	}
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "treeq: %s: %v\n", r.Doc, r.Err)
			continue
		}
		n := len(r.Result.Nodes)
		switch lang {
		case core.LangCQ, core.LangTwig:
			n = len(r.Result.Answers)
		case core.LangSimilar:
			n = len(r.Result.Hits)
		}
		fmt.Printf("%s\tv%d\t%d\n", r.Doc, r.Version, n)
		if run.showPlan && r.Plan != nil {
			fmt.Fprintf(os.Stderr, "plan[%s]: %s\n", r.Doc, r.Plan)
		}
	}
	fmt.Fprintf(os.Stderr, "%d documents, %d failed\n", len(results), failed)
	return failed
}

func readInput(file string) (string, error) {
	if file == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(file)
	return string(data), err
}

func printNode(doc *tree.Tree, n tree.NodeID) {
	fmt.Printf("%d\t%s\t%s\n", doc.Pre(n), doc.Label(n), doc.Text(n))
}

func printPlan(show bool, plan *core.Plan) {
	if show && plan != nil {
		fmt.Fprintf(os.Stderr, "plan: %s\n", plan)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "treeq: %v\n", err)
	os.Exit(1)
}
