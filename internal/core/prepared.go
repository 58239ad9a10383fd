package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/mdatalog"
	"repro/internal/rewrite"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// Query languages accepted by Compile and Engine.Prepare.
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
	// LangStream prepares a forward downward path expression of the
	// streamable fragment (xpath.StreamableSteps refuses any other).  On a
	// stored document a streaming pass has no memory to save, so each
	// execution runs the path set-at-a-time, as LangXPath does; package
	// stream runs the same fragment over a SAX event sequence instead.
	LangStream = "stream"
	// LangSimilar prepares a top-k subtree similarity query: a pattern tree
	// in the ParseSexpr syntax with optional k=N / maxdist=N directives,
	// ranked by tree edit distance (see parseSimilarText for the grammar).
	LangSimilar = "similar"
)

// ErrUnknownLanguage is returned by Compile for an unsupported language tag.
var ErrUnknownLanguage = errors.New("core: unknown query language")

// Result is the outcome of executing a compiled query.  Exactly one of the
// fields is populated, matching the query language: Nodes for xpath, datalog
// and stream queries, Answers for cq and twig queries, Hits for similarity
// queries.
//
// Every route keeps one order contract, which the corpus aggregation relies
// on to merge documents by concatenation: Nodes are in document order
// (ascending NodeID) without duplicates, and Answers are sorted
// lexicographically and deduplicated.
type Result struct {
	// Nodes are the selected nodes in document order.
	Nodes []tree.NodeID
	// Answers are the answer tuples (one node per head variable), in
	// lexicographic order without duplicates.
	Answers []cq.Answer
	// Hits are the ranked similarity answers, ordered by (distance, pre).
	Hits []Hit
}

// ExecStats aggregates the execution history of one Compiled query.
type ExecStats struct {
	// Execs is the number of completed Exec calls.
	Execs uint64
	// TotalExec is the summed wall time of those calls.
	TotalExec time.Duration
	// PrepareTime is the one-off cost of Compile (parse + classify + plan).
	PrepareTime time.Duration
}

// AvgExec returns the mean execution time, or 0 before the first Exec.
func (s ExecStats) AvgExec() time.Duration {
	if s.Execs == 0 {
		return 0
	}
	return s.TotalExec / time.Duration(s.Execs)
}

// Compiled is a query parsed, classified and planned once by Compile, with
// every artifact its route needs (rewritten disjunct unions, compiled datalog
// programs, decomposed similarity patterns) already built.  Every one of
// them is a function of the query alone: a Compiled holds no document, tree
// or index, and reads all of them from the engine it is executed on.  One
// Compiled therefore serves any number of documents and
// every revision of each; Exec may be called repeatedly and from concurrent
// goroutines, on the same engine or on different ones.
type Compiled struct {
	lang string
	text string

	base    Plan // immutable after Compile, PrepareDuration included; cloned per execution
	clauses int  // size of the plan's largest artifact, in clauses (see Clauses)

	// labels is the sorted set of document labels the query mentions (node
	// tests, lab() qualifiers, Lab[...] atoms, pattern-tree labels).  nil
	// means the route could not determine it, which callers must treat as
	// "intersects everything".
	labels []string

	// run executes the compiled plan over e's document and index.  It must be
	// safe for concurrent calls: everything it closes over is immutable, and
	// plan is execution-local.  Exec discards the Result of a failed run.
	run func(ctx context.Context, e *Engine, plan *Plan) (Result, error)

	execs     atomic.Uint64
	execNanos atomic.Int64
}

// Language returns the query language tag the query was compiled under.
func (c *Compiled) Language() string { return c.lang }

// Text returns the source text of the query.
func (c *Compiled) Text() string { return c.text }

// Clauses reports the size of the one artifact a compiled query can pin that
// grows faster than its text: the number of acyclic disjuncts the rewrite
// route compiled (exponential in the query's variables), and the pattern size
// of a similarity query.  Every other route — datalog included, whose
// compiled program is a few rules and no ground clauses — reports 0.  Cache
// admission policies use this to keep one huge artifact from displacing many
// cheap plans.
func (c *Compiled) Clauses() int { return c.clauses }

// Labels returns the sorted set of document labels the query mentions, or
// nil when the route could not determine it (callers must then assume the
// query depends on every label).  The slice is shared; treat it as read-only.
func (c *Compiled) Labels() []string { return c.labels }

// Plan returns a copy of the compile-time plan (no execution timings).  Its
// Notes and Phases share the compiled plan's storage; treat them as
// read-only.
func (c *Compiled) Plan() *Plan {
	plan := c.base.clone()
	return &plan
}

// Phases returns the per-stage compile timings (see Phase).  The slice is a
// copy; callers may keep it.
func (c *Compiled) Phases() []Phase {
	return append([]Phase(nil), c.base.Phases...)
}

// Stats returns the accumulated execution statistics.
func (c *Compiled) Stats() ExecStats {
	return ExecStats{
		Execs:       c.execs.Load(),
		TotalExec:   time.Duration(c.execNanos.Load()),
		PrepareTime: c.base.PrepareDuration,
	}
}

// Execution is the output of one execution: its Result and its
// per-execution Plan.  ExecInto fills one the caller owns, so a caller
// running many executions (the corpus fan-out) can allocate their blocks
// together; Exec allocates one per call.
type Execution struct {
	Result Result
	Plan   Plan
}

// Exec runs the compiled plan once over e's document and returns the result
// together with a per-execution Plan annotated with timings.  Both live in
// one new Execution (see ExecInto); the result is nil on error.
func (c *Compiled) Exec(ctx context.Context, e *Engine) (*Result, *Plan, error) {
	x := new(Execution)
	if err := c.ExecInto(ctx, e, x); err != nil {
		return nil, &x.Plan, err
	}
	return &x.Result, &x.Plan, nil
}

// ExecInto runs the compiled plan once over e's document into x, overwriting
// it: x.Plan is the per-execution plan annotated with timings, and x.Result
// the result, left zero on error.  It allocates only what the route's answer
// and its evaluation need.
func (c *Compiled) ExecInto(ctx context.Context, e *Engine, x *Execution) error {
	x.Result, x.Plan = Result{}, c.base.clone()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	res, err := c.run(ctx, e, &x.Plan)
	elapsed := time.Since(start)
	c.execs.Add(1)
	c.execNanos.Add(int64(elapsed))
	x.Plan.ExecDuration = elapsed
	if err != nil {
		return err
	}
	x.Result = res
	return nil
}

// Compile parses, classifies and plans a query once, returning an immutable
// executable for any engine.  lang is one of the Lang* tags.  Of opts only
// WithStrategy matters: the route is chosen here, once, under that strategy
// (Auto by default), whatever engine the query later runs on.
func Compile(lang, text string, opts ...Option) (*Compiled, error) {
	c, _, err := compile(lang, text, newConfig(opts).strategy)
	return c, err
}

// PreparedQuery is a Compiled query bound to the engine that prepared it, so
// that Exec needs no engine argument.
type PreparedQuery struct {
	*Compiled
	eng *Engine
}

// Exec runs the compiled plan once over the engine's document (see
// Compiled.Exec).  It is safe for concurrent use.
func (p *PreparedQuery) Exec(ctx context.Context) (*Result, *Plan, error) {
	return p.Compiled.Exec(ctx, p.eng)
}

// Prepare compiles a query under the engine's strategy and binds it to the
// engine: Compile plus the engine, for callers that run a query on one
// document.
func (e *Engine) Prepare(lang, text string) (*PreparedQuery, error) {
	c, _, err := compile(lang, text, e.strategy)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{Compiled: c, eng: e}, nil
}

// compile is Compile under an explicit strategy.  It also returns the plan
// as far as it got, so the one-shot wrappers can report the language of a
// query that failed to compile.  Routes record their stages with Plan.lap;
// whatever follows the last one — classification and binding — is "build".
func compile(lang, text string, s Strategy) (*Compiled, *Plan, error) {
	start := time.Now()
	t := start
	c := &Compiled{lang: lang, text: text}
	plan := &Plan{Language: lang}
	var err error
	switch lang {
	case LangXPath:
		err = c.compileXPath(plan, s, &t)
	case LangCQ:
		var q *cq.Query
		if q, err = cq.Parse(text); err == nil {
			plan.lap("parse", &t)
			err = c.compileCQ(plan, s, q)
		}
	case LangDatalog:
		err = c.compileDatalog(plan, s, &t)
	case LangTwig:
		plan.Language = "xpath-twig"
		err = c.compileTwig(plan, &t)
	case LangStream:
		err = c.compileStream(plan, &t)
	case LangSimilar:
		err = c.compileSimilar(plan, s, &t)
	default:
		return nil, plan, fmt.Errorf("%w: %q", ErrUnknownLanguage, lang)
	}
	return c.finish(plan, err, start, &t)
}

// compileParsedCQ compiles an already-parsed conjunctive query; its text is
// the query's canonical rendering.
func compileParsedCQ(q *cq.Query, s Strategy) (*Compiled, *Plan, error) {
	start := time.Now()
	t := start
	c := &Compiled{lang: LangCQ, text: q.String()}
	plan := &Plan{Language: LangCQ}
	err := c.compileCQ(plan, s, q)
	return c.finish(plan, err, start, &t)
}

// finish stamps the build phase and freezes the plan of a successful route.
func (c *Compiled) finish(plan *Plan, err error, start time.Time, t *time.Time) (*Compiled, *Plan, error) {
	if err != nil {
		return nil, plan, err
	}
	plan.lap("build", t)
	plan.PrepareDuration = time.Since(start)
	c.base = *plan
	return c, plan, nil
}

func (c *Compiled) compileXPath(plan *Plan, s Strategy, t *time.Time) error {
	expr, err := xpath.Parse(c.text)
	if err != nil {
		return err
	}
	plan.lap("parse", t)
	plan.note("parsed %q (size %d)", c.text, xpath.Size(expr))
	if !xpath.IsPositive(expr) {
		plan.note("expression uses negation: Core XPath stays PTime via the set-at-a-time algorithm")
	}
	c.labels = xpath.LabelSet(expr)
	if s == Naive {
		plan.Technique = "naive top-down semantics"
		c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
			return Result{Nodes: xpath.QueryNaive(expr, e.doc)}, nil
		}
		return nil
	}
	plan.Technique = "set-at-a-time evaluation (O(|D|*|Q|))"
	plan.note("steps are axis images on the preorder-rank view: a range fill or one pointer chase per context node")
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		return Result{Nodes: xpath.QueryIndexed(expr, e.doc, e.idx)}, nil
	}
	return nil
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

// answers wraps an evaluator's answer tuples as a Result.
func answers(ans []cq.Answer, err error) (Result, error) {
	return Result{Answers: ans}, err
}

// naiveFallback keeps the naive search as the X-property route's safety net,
// so a query its Theorem 6.5 check refuses still gets correct answers (with
// a note) — but a context expiry is not a route failure: it aborts the
// execution instead of demoting it to the exponential search.
func naiveFallback(ctx context.Context, e *Engine, q *cq.Query, p *Plan, reason string, err error) (Result, error) {
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, cerr
	}
	p.note("%s route failed (%v), falling back to naive search", reason, err)
	return answers(cq.EvaluateNaiveCtx(ctx, q, e.doc))
}

// compileNaiveCQ binds the backtracking search: Naive's conjunctive-query
// route, and Auto's for the queries no other route takes.
func compileNaiveCQ(c *Compiled, plan *Plan, q *cq.Query) error {
	plan.Technique = "naive backtracking search"
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		return answers(cq.EvaluateNaiveCtx(ctx, q, e.doc))
	}
	return nil
}

// compileRewriteCQ binds the Theorem-5.1 union, built here once and run on
// every execution: RewriteFirst's route, and Auto's for cyclic queries.
func compileRewriteCQ(c *Compiled, plan *Plan, q *cq.Query) error {
	plan.Technique = "rewrite to acyclic union + Yannakakis"
	union, placements, err := rewrite.Compile(q)
	if err != nil {
		return err
	}
	plan.note("%d acyclic disjuncts from %d placements searched (rewritten and compiled once at prepare time)", len(union), placements)
	c.clauses = len(union)
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		return answers(union.EvaluateCtx(ctx, e.doc, e.idx))
	}
	return nil
}

func (c *Compiled) compileCQ(plan *Plan, s Strategy, q *cq.Query) error {
	plan.note("query %s with %d atoms over axes %v", q, q.NumAtoms(), q.AxisSet())
	c.labels = cqLabelSet(q)
	if s.forced != nil {
		if err := s.forced.cq(c, plan, q); err != nil {
			return fmt.Errorf("%w: %v", ErrNoStrategy, err)
		}
		return nil
	}

	// Auto planning: classify once, at compile time; the route conditions
	// are all static properties of the query, so executions never re-plan.
	// Compile accepts exactly the acyclic, order-free, safe queries.
	if compiled, err := arccons.Compile(q); err == nil {
		plan.note("query is acyclic: holistic evaluation is output-sensitive (Prop. 6.10)")
		plan.Technique = "arc-consistency + backtrack-free enumeration"
		c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
			return answers(compiled.EnumerateCtx(ctx, e.doc, e.idx))
		}
		return nil
	}
	if len(q.Orders) == 0 && q.IsBoolean() {
		if sig, _ := arccons.ClassifySignature(q.AxisSet()); sig != arccons.SignatureNone {
			plan.note("Boolean query over tractable signature %v (Theorem 6.8)", sig)
			plan.Technique = "X-property arc-consistency (Theorem 6.5)"
			c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
				sat, err := arccons.SatisfiableXIndexedCtx(ctx, q, e.doc, e.idx)
				if err != nil {
					return naiveFallback(ctx, e, q, p, "X-property", err)
				}
				if sat {
					return Result{Answers: []cq.Answer{{}}}, nil
				}
				return Result{}, nil
			}
			return nil
		}
	}
	if len(q.Orders) == 0 {
		plan.note("cyclic query with %d variables: rewriting into an acyclic union (Theorem 5.1)", len(q.Variables()))
		err := compileRewriteCQ(c, plan, q)
		if err == nil {
			return nil
		}
		plan.note("rewriting failed (%v), falling back", err)
	}
	plan.note("falling back to the NP-complete general case (Theorem 6.8)")
	return compileNaiveCQ(c, plan, q)
}

func (c *Compiled) compileDatalog(plan *Plan, s Strategy, t *time.Time) error {
	p, err := mdatalog.Parse(c.text)
	if err != nil {
		return err
	}
	plan.lap("parse", t)
	plan.note("program with %d rules, size %d, query predicate %s", len(p.Rules), p.Size(), p.Query)
	c.labels = p.LabelSet()
	if s == Naive {
		plan.Technique = "naive fixpoint"
		c.run = func(ctx context.Context, e *Engine, pl *Plan) (Result, error) {
			nodes, err := mdatalog.EvaluateNaive(p, e.doc)
			return Result{Nodes: nodes}, err
		}
		return nil
	}
	plan.Technique = "TMNF sweeps over preorder ranks (Theorem 3.2)"
	tm, err := p.ToTMNF()
	if err != nil {
		return err
	}
	prog, err := tm.Compile()
	if err != nil {
		return err
	}
	plan.lap("compile", t)
	plan.note("TMNF-compiled to %d rules over %d predicates; components in order: %s", prog.NumRules(), prog.NumPredicates(), strings.Join(prog.Schedules(), ", "))
	c.run = func(ctx context.Context, e *Engine, pl *Plan) (Result, error) {
		// The solver checkpoints ctx every mdatalog.CheckpointInterval nodes
		// stepped or swept or atoms popped, so a mid-solve expiry aborts
		// within one interval.
		nodes, err := prog.SolveCtx(ctx, e.doc, e.idx)
		return Result{Nodes: nodes}, err
	}
	return nil
}

// compileTwig translates the expression to a conjunctive query and compiles
// it for the interval-join kernel: a twig is an acyclic conjunctive query, so
// it runs exactly as the Auto acyclic CQ route does.
func (c *Compiled) compileTwig(plan *Plan, t *time.Time) error {
	expr, err := xpath.Parse(c.text)
	if err != nil {
		return err
	}
	plan.lap("parse", t)
	q, err := xpath.ToCQ(expr)
	if err != nil {
		return err
	}
	compiled, err := arccons.Compile(q)
	if err != nil {
		return err
	}
	plan.lap("translate", t)
	plan.Technique = "translate to CQ + arc-consistency"
	plan.note("translated to %s", q)
	c.labels = cqLabelSet(q)
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		return answers(compiled.EnumerateCtx(ctx, e.doc, e.idx))
	}
	return nil
}

// compileStream checks that the expression is in the streamable fragment, the
// check stream.Compile makes, and runs it on the axis images, the call
// compileXPath makes: the streaming automaton earns its keep on input that is
// not stored, and the image evaluator fuses "//" as the automaton does.
func (c *Compiled) compileStream(plan *Plan, t *time.Time) error {
	expr, err := xpath.Parse(c.text)
	if err != nil {
		return err
	}
	plan.lap("parse", t)
	steps, err := xpath.StreamableSteps(expr)
	if err != nil {
		return err
	}
	plan.lap("compile", t)
	plan.Technique = "streamable path, set-at-a-time evaluation (O(|D|*|Q|))"
	plan.note("%q is a %d-step streamable path; on a stored document it runs as axis images, not as a streaming pass", c.text, len(steps))
	c.labels = xpath.LabelSet(expr)
	c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
		return Result{Nodes: xpath.QueryIndexed(expr, e.doc, e.idx)}, nil
	}
	return nil
}
