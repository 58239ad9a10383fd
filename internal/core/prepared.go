package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/mdatalog"
	"repro/internal/rewrite"
	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/xpath"
	"repro/internal/yannakakis"
)

// Query languages accepted by Engine.Prepare.
const (
	// LangXPath prepares a Core XPath expression (unary query from the root).
	LangXPath = "xpath"
	// LangCQ prepares a conjunctive query in the datalog-style syntax of
	// package cq.
	LangCQ = "cq"
	// LangDatalog prepares a monadic datalog program.
	LangDatalog = "datalog"
	// LangTwig prepares a conjunctive //-rooted Core XPath expression through
	// the twig route (translate to CQ + holistic evaluation).
	LangTwig = "twig"
	// LangStream prepares a forward downward path expression for the
	// streaming transducer (stream.Compile); each execution walks the
	// document in preorder, driving the matcher as its SAX events would.
	LangStream = "stream"
	// LangSimilar prepares a top-k subtree similarity query: a pattern tree
	// in the ParseSexpr syntax with optional k=N / maxdist=N directives,
	// ranked by tree edit distance (see parseSimilarText for the grammar).
	LangSimilar = "similar"
)

// ErrUnknownLanguage is returned by Prepare for an unsupported language tag.
var ErrUnknownLanguage = errors.New("core: unknown query language")

// Result is the outcome of executing a PreparedQuery.  Exactly one of the
// fields is populated, matching the query language: Nodes for xpath, datalog
// and stream queries, Answers for cq and twig queries, Hits for similarity
// queries.
type Result struct {
	// Nodes are the selected nodes in document order.
	Nodes []tree.NodeID
	// Answers are the answer tuples (one node per head variable).
	Answers []cq.Answer
	// Hits are the ranked similarity answers, ordered by (distance, pre).
	Hits []Hit
}

// ExecStats aggregates the execution history of one PreparedQuery.
type ExecStats struct {
	// Execs is the number of completed Exec calls.
	Execs uint64
	// TotalExec is the summed wall time of those calls.
	TotalExec time.Duration
	// PrepareTime is the one-off cost of Prepare (parse + classify + plan).
	PrepareTime time.Duration
}

// AvgExec returns the mean execution time, or 0 before the first Exec.
func (s ExecStats) AvgExec() time.Duration {
	if s.Execs == 0 {
		return 0
	}
	return s.TotalExec / time.Duration(s.Execs)
}

// PreparedQuery is a compiled query: parsed, classified, and planned once by
// Engine.Prepare, with every artifact the plan needs (rewritten disjunct
// unions, compiled datalog programs and streaming matchers) already built.
// None of them is bound to the document: what a route reads of it, it reads
// from the engine's tree and index at execution time.  Exec runs the
// compiled plan; it may be called repeatedly and from concurrent goroutines.
type PreparedQuery struct {
	eng  *Engine
	lang string
	text string

	base        Plan // immutable after prepare; cloned per execution
	prepareTime time.Duration
	clauses     int // size of the plan's largest artifact, in clauses (see Clauses)

	// labels is the sorted set of document labels the query mentions (node
	// tests, lab() qualifiers, Lab[...] atoms, pattern-tree labels).  nil
	// means the route could not determine it, which callers must treat as
	// "intersects everything".  The incremental-update layer counts the
	// plans whose label set is disjoint from a shape-preserving diff's
	// touched labels: their answers cannot have changed.
	labels []string

	// run executes the compiled plan.  It must be safe for concurrent calls:
	// everything it closes over is immutable, and plan is execution-local.
	run func(ctx context.Context, plan *Plan) (*Result, error)

	// reprepare rebinds the query to a new engine, sharing the route's
	// artifacts (parsed AST, translated and compiled CQ, compiled datalog
	// program, compiled streaming matcher); only classification under the
	// new engine's strategy and the run-closure binding are redone.  Set by
	// every prepare route.
	reprepare func(e *Engine) (*PreparedQuery, error)

	execs     atomic.Uint64
	execNanos atomic.Int64
}

// Language returns the query language tag the query was prepared under.
func (p *PreparedQuery) Language() string { return p.lang }

// Text returns the source text of the query.
func (p *PreparedQuery) Text() string { return p.text }

// Clauses reports the size of the one artifact a prepared query can pin that
// grows faster than its text: the number of acyclic disjuncts the rewrite
// route compiled (exponential in the query's variables), and the pattern size
// of a similarity query.  Every other route — datalog included, whose
// compiled program is a few rules and no ground clauses — reports 0.  Cache
// admission policies use this to keep one huge artifact from displacing many
// cheap plans.
func (p *PreparedQuery) Clauses() int { return p.clauses }

// Labels returns the sorted set of document labels the query mentions, or
// nil when the route could not determine it (callers must then assume the
// query depends on every label).  The slice is shared; treat it as read-only.
func (p *PreparedQuery) Labels() []string { return p.labels }

// Plan returns a copy of the prepare-time plan (no execution timings).
func (p *PreparedQuery) Plan() *Plan {
	plan := p.base.clone()
	plan.PrepareDuration = p.prepareTime
	return plan
}

// Stats returns the accumulated execution statistics.
func (p *PreparedQuery) Stats() ExecStats {
	return ExecStats{
		Execs:       p.execs.Load(),
		TotalExec:   time.Duration(p.execNanos.Load()),
		PrepareTime: p.prepareTime,
	}
}

// Exec runs the compiled plan once and returns the result together with a
// per-execution Plan annotated with timings and index-cache counters.  Exec
// is safe for concurrent use from multiple goroutines over one shared
// PreparedQuery (and Engine).
func (p *PreparedQuery) Exec(ctx context.Context) (*Result, *Plan, error) {
	plan := p.base.clone()
	plan.PrepareDuration = p.prepareTime
	if err := ctx.Err(); err != nil {
		return nil, plan, err
	}
	start := time.Now()
	res, err := p.run(ctx, plan)
	elapsed := time.Since(start)
	p.execs.Add(1)
	p.execNanos.Add(int64(elapsed))
	plan.ExecDuration = elapsed
	plan.IndexStats = p.eng.idx.Snapshot()
	return res, plan, err
}

// Reprepare compiles the same query against another engine — typically the
// engine of a new revision of the same document — and returns a fresh
// PreparedQuery bound to it.  It shares every artifact of the original prepare
// (the parsed expression or program, the twig-to-CQ translation, the compiled
// datalog program, the compiled streaming matcher) — none is bound to the
// document — so re-preparing a warm plan after a document swap costs a
// closure and a plan, whatever the route and the document size.
//
// The receiver is left untouched and stays valid against its own engine;
// execution statistics start fresh on the returned query.  Reprepare is safe
// to call concurrently with Exec.
func (p *PreparedQuery) Reprepare(e *Engine) (*PreparedQuery, error) {
	if p.reprepare != nil {
		return p.reprepare(e)
	}
	return e.Prepare(p.lang, p.text)
}

// Prepare parses, classifies and plans a query once, returning an immutable
// executable whose Exec can be called repeatedly and concurrently.  lang is
// one of LangXPath, LangCQ, LangDatalog, LangTwig, LangStream.
func (e *Engine) Prepare(lang, text string) (*PreparedQuery, error) {
	var (
		pq  *PreparedQuery
		err error
	)
	switch lang {
	case LangXPath:
		pq, _, err = e.prepareXPath(text)
	case LangCQ:
		parseStart := time.Now()
		var q *cq.Query
		q, err = cq.Parse(text)
		if err == nil {
			pq, _, err = e.prepareCQText(q, text, time.Since(parseStart), newCQForms(q))
		}
	case LangDatalog:
		pq, _, err = e.prepareDatalog(text)
	case LangTwig:
		pq, _, err = e.prepareTwig(text)
	case LangStream:
		pq, _, err = e.prepareStream(text)
	case LangSimilar:
		pq, _, err = e.prepareSimilar(text)
	default:
		return nil, fmt.Errorf("%w: %q", ErrUnknownLanguage, lang)
	}
	return pq, err
}

// PrepareCQ prepares an already-parsed conjunctive query.
func (e *Engine) PrepareCQ(q *cq.Query) (*PreparedQuery, error) {
	pq, _, err := e.prepareCQ(q)
	return pq, err
}

// finish stamps the prepare duration and freezes the base plan.
func (e *Engine) finish(pq *PreparedQuery, plan *Plan, start time.Time) *PreparedQuery {
	pq.base = *plan.clone()
	pq.prepareTime = time.Since(start)
	return pq
}

func (e *Engine) prepareXPath(query string) (*PreparedQuery, *Plan, error) {
	plan := &Plan{Language: "xpath"}
	parseStart := time.Now()
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, plan, err
	}
	pq, plan := e.buildXPath(expr, query, time.Since(parseStart))
	return pq, plan, nil
}

// buildXPath binds an already-parsed expression to this engine's document.
// Reprepare re-enters here on the new engine, skipping the parse (parseDur 0
// marks the phase as not performed).
func (e *Engine) buildXPath(expr xpath.Expr, query string, parseDur time.Duration) (*PreparedQuery, *Plan) {
	start := time.Now()
	plan := &Plan{Language: "xpath"}
	if parseDur > 0 {
		plan.phase("parse", parseDur)
	}
	plan.note("parsed %q (size %d)", query, xpath.Size(expr))
	if !xpath.IsPositive(expr) {
		plan.note("expression uses negation: Core XPath stays PTime via the set-at-a-time algorithm")
	}
	pq := &PreparedQuery{eng: e, lang: LangXPath, text: query, labels: xpath.LabelSet(expr)}
	pq.reprepare = func(ne *Engine) (*PreparedQuery, error) {
		npq, _ := ne.buildXPath(expr, query, 0)
		return npq, nil
	}
	if e.strategy == Naive {
		plan.Technique = "naive top-down semantics"
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			return &Result{Nodes: xpath.QueryNaive(expr, e.doc)}, nil
		}
	} else {
		plan.Technique = "set-at-a-time evaluation (O(|D|*|Q|))"
		plan.note("steps are axis images on the preorder-rank view: a range fill or one pointer chase per context node")
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			return &Result{Nodes: xpath.QueryIndexed(expr, e.doc, e.idx)}, nil
		}
	}
	plan.phase("build", time.Since(start))
	return e.finish(pq, plan, start), plan
}

func (e *Engine) prepareCQ(q *cq.Query) (*PreparedQuery, *Plan, error) {
	return e.prepareCQText(q, q.String(), 0, newCQForms(q))
}

// cqForms are the document-independent executables of a conjunctive query for
// the interval-join kernel, each built on first use by whichever route needs
// it and then shared by every Reprepare of the query.
type cqForms struct {
	acyclic func() (*arccons.Compiled, error) // the query itself, when acyclic
	union   func() (rewrite.Union, error)     // its rewriting into acyclic disjuncts
}

func newCQForms(q *cq.Query) *cqForms {
	return &cqForms{
		acyclic: sync.OnceValues(func() (*arccons.Compiled, error) { return arccons.Compile(q) }),
		union:   sync.OnceValues(func() (rewrite.Union, error) { return rewrite.Compile(q) }),
	}
}

// cqLabelSet collects the sorted distinct labels a conjunctive query tests
// through its Lab[...] atoms.
func cqLabelSet(q *cq.Query) []string {
	seen := map[string]bool{}
	for _, la := range q.Labels {
		seen[la.Label] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// prepareCQText keeps the caller's source text (when the query arrived as
// text) so PreparedQuery.Text round-trips it exactly.  It doubles as the
// Reprepare entry point: the parsed query and its compiled forms are
// document-independent, so a document swap re-enters here (parseDur 0, same
// forms) and redoes only classification and the closure binding.
func (e *Engine) prepareCQText(q *cq.Query, text string, parseDur time.Duration, forms *cqForms) (*PreparedQuery, *Plan, error) {
	start := time.Now()
	plan := &Plan{Language: "cq"}
	if parseDur > 0 {
		plan.phase("parse", parseDur)
	}
	plan.note("query %s with %d atoms over axes %v", q, q.NumAtoms(), q.AxisSet())
	pq := &PreparedQuery{eng: e, lang: LangCQ, text: text, labels: cqLabelSet(q)}
	pq.reprepare = func(ne *Engine) (*PreparedQuery, error) {
		npq, _, err := ne.prepareCQText(q, text, 0, forms)
		return npq, err
	}
	// fin stamps the classification/planning phase and freezes the plan; every
	// successful route returns through it so the phase list never misses one.
	fin := func() (*PreparedQuery, *Plan, error) {
		plan.phase("build", time.Since(start))
		return e.finish(pq, plan, start), plan, nil
	}

	switch e.strategy {
	case Naive:
		plan.Technique = "naive backtracking search"
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			ans, err := cq.EvaluateNaiveCtx(ctx, q, e.doc)
			if err != nil {
				return nil, err
			}
			return &Result{Answers: ans}, nil
		}
		return fin()
	case Yannakakis:
		plan.Technique = "Yannakakis full reducer"
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			ans, err := yannakakis.EvaluateIndexed(q, e.doc, e.idx)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrNoStrategy, err)
			}
			return &Result{Answers: ans}, nil
		}
		return fin()
	case ArcConsistency:
		plan.Technique = "arc-consistency + backtrack-free enumeration"
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			ans, err := arccons.EnumerateAcyclicIndexedCtx(ctx, q, e.doc, e.idx)
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				return nil, fmt.Errorf("%w: %v", ErrNoStrategy, err)
			}
			return &Result{Answers: ans}, nil
		}
		return fin()
	case RewriteFirst:
		plan.Technique = "rewrite to acyclic union + Yannakakis"
		union, err := forms.union()
		if err != nil {
			return nil, plan, fmt.Errorf("%w: %v", ErrNoStrategy, err)
		}
		plan.note("%d acyclic disjuncts (rewritten and compiled once at prepare time)", len(union))
		pq.clauses = len(union)
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			ans, err := union.EvaluateCtx(ctx, e.doc, e.idx)
			if err != nil {
				return nil, err
			}
			return &Result{Answers: ans}, nil
		}
		return fin()
	}

	// Auto planning: classify once, at prepare time; the route conditions are
	// all static properties of the query, so executions never re-plan.  The
	// exec closures keep the naive search as a safety net so a failing route
	// still returns correct answers (with a note) rather than an error — but
	// a context expiry is not a route failure: it aborts the execution
	// instead of demoting it to the exponential search.
	naive := func(ctx context.Context, p *Plan, reason string, err error) (*Result, error) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		p.note("%s route failed (%v), falling back to naive search", reason, err)
		ans, nerr := cq.EvaluateNaiveCtx(ctx, q, e.doc)
		if nerr != nil {
			return nil, nerr
		}
		return &Result{Answers: ans}, nil
	}
	// Compile accepts exactly the acyclic, order-free, safe queries.
	if compiled, err := forms.acyclic(); err == nil {
		plan.note("query is acyclic: holistic evaluation is output-sensitive (Prop. 6.10)")
		plan.Technique = "arc-consistency + backtrack-free enumeration"
		pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
			ans, err := compiled.EnumerateCtx(ctx, e.doc, e.idx)
			if err != nil {
				return naive(ctx, p, "arc-consistency", err)
			}
			return &Result{Answers: ans}, nil
		}
		return fin()
	}
	if len(q.Orders) == 0 && q.IsBoolean() {
		if sig, _ := arccons.ClassifySignature(q.AxisSet()); sig != arccons.SignatureNone {
			plan.note("Boolean query over tractable signature %v (Theorem 6.8)", sig)
			plan.Technique = "X-property arc-consistency (Theorem 6.5)"
			pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
				sat, err := arccons.SatisfiableXIndexedCtx(ctx, q, e.doc, e.idx)
				if err != nil {
					return naive(ctx, p, "X-property", err)
				}
				if sat {
					return &Result{Answers: []cq.Answer{{}}}, nil
				}
				return &Result{}, nil
			}
			return fin()
		}
	}
	if len(q.Orders) == 0 && len(q.Variables()) <= rewrite.MaxVariables {
		plan.note("cyclic query with %d variables: rewriting into an acyclic union (Theorem 5.1)", len(q.Variables()))
		if union, err := forms.union(); err == nil {
			plan.Technique = "rewrite to acyclic union + Yannakakis"
			plan.note("%d acyclic disjuncts (rewritten and compiled once at prepare time)", len(union))
			pq.clauses = len(union)
			pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
				ans, err := union.EvaluateCtx(ctx, e.doc, e.idx)
				if err != nil {
					return naive(ctx, p, "rewrite", err)
				}
				return &Result{Answers: ans}, nil
			}
			return fin()
		} else {
			plan.note("rewriting failed (%v), falling back", err)
		}
	}
	plan.note("falling back to the NP-complete general case (Theorem 6.8)")
	plan.Technique = "naive backtracking search"
	pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
		ans, err := cq.EvaluateNaiveCtx(ctx, q, e.doc)
		if err != nil {
			return nil, err
		}
		return &Result{Answers: ans}, nil
	}
	return fin()
}

func (e *Engine) prepareDatalog(program string) (*PreparedQuery, *Plan, error) {
	// On a parse error only the language is known; buildDatalog owns the
	// full technique-stamped Plan for every successful prepare (and every
	// re-prepare), so the two can never drift apart.
	parseStart := time.Now()
	p, err := mdatalog.Parse(program)
	if err != nil {
		return nil, &Plan{Language: "datalog"}, err
	}
	return e.buildDatalog(p, newDatalogForm(p), program, time.Since(parseStart))
}

// newDatalogForm is the document-independent executable of a datalog program
// — its TMNF conversion, compiled — built on first use by the first engine
// that does not run the program naively and then shared by every Reprepare.
func newDatalogForm(p *mdatalog.Program) func() (*mdatalog.Compiled, error) {
	return sync.OnceValues(func() (*mdatalog.Compiled, error) {
		tm, err := p.ToTMNF()
		if err != nil {
			return nil, err
		}
		return tm.Compile()
	})
}

// buildDatalog binds an already-parsed program to this engine: the strategy
// branch and the run closure.  TMNF conversion and compilation read no
// document, so Reprepare re-enters here on the new engine with the same form
// (parseDur 0 marks parse and compile as not performed) and a document swap
// costs a closure and a plan.
func (e *Engine) buildDatalog(p *mdatalog.Program, form func() (*mdatalog.Compiled, error), program string, parseDur time.Duration) (*PreparedQuery, *Plan, error) {
	start := time.Now()
	plan := &Plan{Language: "datalog", Technique: "TMNF grounding + Minoux Horn-SAT (Theorem 3.2)"}
	if parseDur > 0 {
		plan.phase("parse", parseDur)
	}
	plan.note("program with %d rules, size %d, query predicate %s", len(p.Rules), p.Size(), p.Query)
	pq := &PreparedQuery{eng: e, lang: LangDatalog, text: program, labels: p.LabelSet()}
	pq.reprepare = func(ne *Engine) (*PreparedQuery, error) {
		npq, _, err := ne.buildDatalog(p, form, program, 0)
		return npq, err
	}
	if e.strategy == Naive {
		plan.Technique = "naive fixpoint"
		pq.run = func(ctx context.Context, pl *Plan) (*Result, error) {
			nodes, err := mdatalog.EvaluateNaive(p, e.doc)
			if err != nil {
				return nil, err
			}
			return &Result{Nodes: nodes}, nil
		}
		plan.phase("build", time.Since(start))
		return e.finish(pq, plan, start), plan, nil
	}
	compileStart := time.Now()
	c, err := form()
	if err != nil {
		return nil, plan, err
	}
	bindStart := time.Now()
	if parseDur > 0 {
		plan.phase("compile", bindStart.Sub(compileStart))
	}
	plan.note("TMNF-compiled to %d rules over %d predicates; propagated on the tree, no ground program", c.NumRules(), c.NumPredicates())
	pq.run = func(ctx context.Context, pl *Plan) (*Result, error) {
		// The solver checkpoints ctx every hornsat.CheckpointInterval unit
		// propagations, so a mid-solve expiry aborts within one interval.
		nodes, err := c.SolveCtx(ctx, e.doc, e.idx)
		if err != nil {
			return nil, err
		}
		return &Result{Nodes: nodes}, nil
	}
	plan.phase("build", time.Since(bindStart))
	return e.finish(pq, plan, start), plan, nil
}

// Phases returns the per-stage prepare timings recorded when this query was
// compiled (see Phase).  The slice is a copy; callers may keep it.
func (p *PreparedQuery) Phases() []Phase {
	return append([]Phase(nil), p.base.Phases...)
}

func (e *Engine) prepareTwig(query string) (*PreparedQuery, *Plan, error) {
	parseStart := time.Now()
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, &Plan{Language: "xpath-twig"}, err
	}
	parseDur := time.Since(parseStart)
	translateStart := time.Now()
	q, err := xpath.ToCQ(expr)
	if err != nil {
		return nil, &Plan{Language: "xpath-twig"}, err
	}
	compiled, err := arccons.Compile(q)
	if err != nil {
		return nil, &Plan{Language: "xpath-twig"}, err
	}
	pq, plan := e.buildTwig(q, compiled, query, parseDur, time.Since(translateStart))
	return pq, plan, nil
}

// buildTwig binds an already-translated and compiled twig CQ to this engine's
// document: the twig is an acyclic conjunctive query, so it runs on the
// interval-join kernel exactly as the Auto acyclic CQ route does.  Reprepare
// re-enters here on the new engine, skipping parse, translation and compile
// (both durations 0 mark the phases as not performed).
func (e *Engine) buildTwig(q *cq.Query, compiled *arccons.Compiled, query string, parseDur, translateDur time.Duration) (*PreparedQuery, *Plan) {
	start := time.Now()
	plan := &Plan{Language: "xpath-twig", Technique: "translate to CQ + arc-consistency"}
	if parseDur > 0 {
		plan.phase("parse", parseDur)
	}
	if translateDur > 0 {
		plan.phase("translate", translateDur)
	}
	plan.note("translated to %s", q)
	pq := &PreparedQuery{eng: e, lang: LangTwig, text: query, labels: cqLabelSet(q)}
	pq.reprepare = func(ne *Engine) (*PreparedQuery, error) {
		npq, _ := ne.buildTwig(q, compiled, query, 0, 0)
		return npq, nil
	}
	pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
		ans, err := compiled.EnumerateCtx(ctx, e.doc, e.idx)
		if err != nil {
			return nil, err
		}
		return &Result{Answers: ans}, nil
	}
	plan.phase("build", time.Since(start))
	return e.finish(pq, plan, start), plan
}

func (e *Engine) prepareStream(query string) (*PreparedQuery, *Plan, error) {
	parseStart := time.Now()
	expr, err := xpath.Parse(query)
	if err != nil {
		return nil, &Plan{Language: "stream"}, err
	}
	parseDur := time.Since(parseStart)
	compileStart := time.Now()
	m, err := stream.Compile(expr)
	if err != nil {
		return nil, &Plan{Language: "stream"}, err
	}
	pq, plan := e.buildStream(m, query, xpath.LabelSet(expr), parseDur, time.Since(compileStart))
	return pq, plan, nil
}

// buildStream binds an already-compiled streaming matcher to this engine's
// document.  The matcher is fully document-independent, so Reprepare re-enters
// here (durations 0) and a document swap costs only the closure rebind.
func (e *Engine) buildStream(m *stream.Matcher, query string, labels []string, parseDur, compileDur time.Duration) (*PreparedQuery, *Plan) {
	start := time.Now()
	plan := &Plan{Language: "stream", Technique: "streaming transducer (memory O(depth*|Q|))"}
	if parseDur > 0 {
		plan.phase("parse", parseDur)
	}
	if compileDur > 0 {
		plan.phase("compile", compileDur)
	}
	plan.note("compiled %q into a %d-step streaming matcher", query, m.Steps())
	// The matcher is compiled once here; each execution walks the document
	// in preorder, driving the matcher as its SAX events would, so a plan
	// holds no per-document state at all.
	pq := &PreparedQuery{eng: e, lang: LangStream, text: query, labels: labels}
	pq.reprepare = func(ne *Engine) (*PreparedQuery, error) {
		npq, _ := ne.buildStream(m, query, labels, 0, 0)
		return npq, nil
	}
	pq.run = func(ctx context.Context, p *Plan) (*Result, error) {
		nodes, stats, err := m.RunOnTree(e.doc)
		if err != nil {
			return nil, err
		}
		p.note("stream run: %d events, max depth %d, max state cells %d",
			stats.Events, stats.MaxDepth, stats.MaxStateCells)
		return &Result{Nodes: nodes}, nil
	}
	plan.phase("build", time.Since(start))
	return e.finish(pq, plan, start), plan
}

// BatchResult pairs the outcome of one query of a batch with its position in
// the input slice.
type BatchResult struct {
	// Index is the query's position in the batch.
	Index int
	// Result is the execution result (nil on error).
	Result *Result
	// Plan is the per-execution plan (nil only when the query never ran).
	Plan *Plan
	// Err is the prepare or execution error, if any.
	Err error
}

// ExecBatch executes the prepared queries on a pool of workers goroutines
// (GOMAXPROCS when workers <= 0) and returns one BatchResult per query, in
// input order.  The queries may share an Engine; a cancelled context aborts
// queries that have not started yet.
func ExecBatch(ctx context.Context, queries []*PreparedQuery, workers int) []BatchResult {
	out := make([]BatchResult, len(queries))
	RunPool(len(queries), workers, func(i int) {
		out[i] = BatchResult{Index: i}
		if queries[i] == nil {
			out[i].Err = errors.New("core: nil PreparedQuery in batch")
			return
		}
		out[i].Result, out[i].Plan, out[i].Err = queries[i].Exec(ctx)
	})
	return out
}

// QueryRequest names one query of a QueryAll batch.
type QueryRequest struct {
	// Lang is the query language (LangXPath, LangCQ, LangDatalog, LangTwig).
	Lang string
	// Text is the query source.
	Text string
}

// QueryAll prepares and executes a mixed-language batch of queries on a pool
// of workers goroutines (GOMAXPROCS when workers <= 0), returning one
// BatchResult per request, in input order.  Each worker prepares and runs
// its own queries, so both compilation and execution parallelize.
func (e *Engine) QueryAll(ctx context.Context, reqs []QueryRequest, workers int) []BatchResult {
	out := make([]BatchResult, len(reqs))
	RunPool(len(reqs), workers, func(i int) {
		out[i] = BatchResult{Index: i}
		pq, err := e.Prepare(reqs[i].Lang, reqs[i].Text)
		if err != nil {
			out[i].Err = err
			return
		}
		out[i].Result, out[i].Plan, out[i].Err = pq.Exec(ctx)
	})
	return out
}

// RunPool runs do(0..n-1) on min(workers, n) goroutines (GOMAXPROCS when
// workers <= 0) and waits for them.  It is the worker pool behind ExecBatch,
// QueryAll, and the corpus service's fan-out.
func RunPool(n, workers int, do func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}
