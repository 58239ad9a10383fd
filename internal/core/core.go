// Package core is the top-level query engine of the library: it wraps a
// tree-structured document and evaluates queries written in the languages
// surveyed by the paper (Core XPath, conjunctive queries, monadic datalog,
// twig patterns, streamable paths, subtree similarity).  It holds three
// things.  The Auto planner picks among the paper's technique families
//
//  1. node orders / labeling schemes and structural joins (Section 2),
//  2. linear-time evaluation of monadic datalog in TMNF (Section 3),
//  3. structural decomposition -- acyclicity and Yannakakis (Section 4),
//  4. query rewriting into acyclic positive queries (Section 5),
//  5. arc-consistency / X-underbar holistic evaluation (Section 6),
//
// as the survey prescribes, and reports which technique it picked and why in
// a Plan the caller can inspect.  The dispatch binds each route once, at
// Compile.  The Compile/Exec pipeline runs it.  The paper's baselines stay
// beside the planner as ablations: a forced strategy carries its own route
// (see Strategy), and Yannakakis is declared in package baseline, next to its
// evaluator, so a program that never forces it does not link it.  Package
// stream runs the streamable fragment over SAX events; LangStream shares only
// its fragment check, xpath.StreamableSteps.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/arccons"
	"repro/internal/cq"
	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Strategy selects how queries are evaluated.  The zero value is Auto, the
// planner.  Every other strategy forces a route: Naive forces the baseline
// evaluator of every language, and a strategy made by ForceCQ (ArcConsistency
// here; Yannakakis in package baseline, beside its evaluator) forces one
// conjunctive-query route and leaves every other language to Auto.
// Strategies compare with ==.
type Strategy struct {
	forced *strategy // nil for Auto
}

type strategy struct {
	name string
	// cq binds the forced route of a conjunctive query, or fails; compileCQ
	// wraps the failure in ErrNoStrategy.
	cq func(c *Compiled, plan *Plan, q *cq.Query) error
}

var (
	// Auto lets the planner pick the technique (the default).
	Auto Strategy
	// Naive forces the baseline evaluators (per-node XPath semantics,
	// backtracking CQ search).  Useful for the ablation benchmarks.
	Naive = Strategy{&strategy{name: "naive", cq: compileNaiveCQ}}
	// ArcConsistency forces the Section-6 holistic evaluator for acyclic CQs.
	ArcConsistency = ForceCQ("arc-consistency", "arc-consistency + backtrack-free enumeration",
		func(ctx context.Context, q *cq.Query, doc *tree.Tree, idx *index.Index) ([]cq.Answer, error) {
			return arccons.EnumerateAcyclicIndexedCtx(ctx, q, doc, idx)
		})
	// RewriteFirst forces the Theorem-5.1 rewriting for CQs.
	RewriteFirst = Strategy{&strategy{name: "rewrite", cq: compileRewriteCQ}}
)

// ForceCQ returns the strategy named name that evaluates every conjunctive
// query with eval and reports technique as its plan's technique; the other
// languages run as under Auto.  An eval error is wrapped in ErrNoStrategy
// unless the context expired.
func ForceCQ(name, technique string, eval func(ctx context.Context, q *cq.Query, doc *tree.Tree, idx *index.Index) ([]cq.Answer, error)) Strategy {
	return Strategy{&strategy{name: name, cq: func(c *Compiled, plan *Plan, q *cq.Query) error {
		plan.Technique = technique
		c.run = func(ctx context.Context, e *Engine, p *Plan) (Result, error) {
			ans, err := eval(ctx, q, e.doc, e.idx)
			if err != nil {
				if ctx.Err() != nil {
					return Result{}, err
				}
				return Result{}, fmt.Errorf("%w: %v", ErrNoStrategy, err)
			}
			return Result{Answers: ans}, nil
		}
		return nil
	}}}
}

// String names the strategy.
func (s Strategy) String() string {
	if s.forced == nil {
		return "auto"
	}
	return s.forced.name
}

// Phase is one timed stage of query compilation: "parse" (source text to
// AST), "translate" (twig-to-CQ conversion), "compile" (the streamable-fragment
// check; datalog TMNF conversion and rule compilation), "ted"
// (similarity-pattern decomposition), "build" (classification, planning, and
// run-closure binding).  Routes record only the phases they perform.
type Phase struct {
	// Name is the stage name.
	Name string
	// Duration is the stage's wall time.
	Duration time.Duration
}

// Plan records the planner's decision for one query, and -- for queries run
// through the prepare/execute pipeline -- the compile-vs-run timings.  The
// engine's index-cache counters are read from Engine.Index().Snapshot().
type Plan struct {
	// Language is the query language ("xpath", "cq", "xpath-twig",
	// "datalog", "stream", "similar").
	Language string
	// Technique is the technique family finally used.
	Technique string
	// Notes explains the decision step by step.
	Notes []string
	// Phases are the per-stage prepare timings, in execution order (see
	// Phase).  The observability layer exports them as the
	// treeqd_prepare_duration_seconds{lang,phase} histogram.
	Phases []Phase
	// PrepareDuration is the time spent parsing, classifying and planning
	// (paid once per Compiled query, amortized over its executions).
	PrepareDuration time.Duration
	// ExecDuration is the wall time of the execution that produced this Plan.
	ExecDuration time.Duration
	// Similar is the candidate funnel of the similarity execution that
	// produced this Plan, kept as counts; AllNotes renders it.  Zero on every
	// other plan.
	Similar SimilarFunnel
}

// SimilarFunnel counts the candidate subtrees of one similarity execution.
type SimilarFunnel struct {
	// Searched is set by every similarity execution; Exhaustive by the Naive
	// route's, which prunes nothing and runs the kernel on every candidate.
	Searched, Exhaustive bool
	// Candidates is the number of candidate subtrees considered; SizePruned
	// and HistPruned are those the subtree-size and label-histogram lower
	// bounds eliminated before any kernel call.  The rest reached the kernel.
	Candidates, SizePruned, HistPruned uint64
}

// note renders the funnel as its plan note, "" when no search ran.
func (f SimilarFunnel) note() string {
	switch {
	case !f.Searched:
		return ""
	case f.Exhaustive:
		return fmt.Sprintf("similar: exhaustive over %d subtrees", f.Candidates)
	}
	return fmt.Sprintf("similar: %d candidates, %d size-pruned, %d histogram-pruned, %d kernel calls",
		f.Candidates, f.SizePruned, f.HistPruned, f.Candidates-f.SizePruned-f.HistPruned)
}

func (p *Plan) note(format string, args ...any) {
	p.Notes = append(p.Notes, fmt.Sprintf(format, args...))
}

// phase records one completed prepare stage; zero-duration stages are clamped
// to 1ns so a recorded phase is always distinguishable from an absent one.
func (p *Plan) phase(name string, d time.Duration) {
	if d <= 0 {
		d = 1
	}
	p.Phases = append(p.Phases, Phase{Name: name, Duration: d})
}

// lap records the stage that ran since *t and restarts the clock.
func (p *Plan) lap(name string, t *time.Time) {
	now := time.Now()
	p.phase(name, now.Sub(*t))
	*t = now
}

// clone copies the plan so each execution can annotate its own.  Notes and
// Phases stay shared with p; treat their elements as read-only.
func (p *Plan) clone() Plan {
	c := *p
	// The copy shares the base's slices; capping their capacity makes an
	// execution-time note or phase append copy instead of writing into the
	// base's backing array.
	c.Notes = p.Notes[:len(p.Notes):len(p.Notes)]
	c.Phases = p.Phases[:len(p.Phases):len(p.Phases)]
	return c
}

// AllNotes returns the notes a written plan shows: Notes, then the
// execution's counts (Similar) rendered as a sentence.  A plan without such
// counts returns Notes itself; otherwise the slice is new.
func (p *Plan) AllNotes() []string {
	n := p.Similar.note()
	if n == "" {
		return p.Notes
	}
	return append(p.Notes[:len(p.Notes):len(p.Notes)], n)
}

// String renders the plan for logging.
func (p *Plan) String() string {
	return fmt.Sprintf("[%s via %s] %s", p.Language, p.Technique, strings.Join(p.AllNotes(), "; "))
}

// Engine evaluates queries over one document.
//
// An Engine is safe for concurrent use by multiple goroutines: the document
// and strategy are immutable after New, and the shared index cache guards
// all lazily-built artifacts internally.  The intended usage for repeated
// or multi-query workloads is Prepare once, then Exec from as many
// goroutines as desired; package service fans one query out over many
// engines.
type Engine struct {
	doc      *tree.Tree
	strategy Strategy
	idx      *index.Index
}

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	strategy Strategy
}

// WithStrategy overrides the Auto planner.
func WithStrategy(s Strategy) Option {
	return func(c *engineConfig) { c.strategy = s }
}

// WithPairCacheCap does nothing: the engine's index caches no pair
// relations.
//
// Deprecated: kept for callers that still pass it.
func WithPairCacheCap(int) Option {
	return func(*engineConfig) {}
}

func newConfig(opts []Option) engineConfig {
	cfg := engineConfig{strategy: Auto}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// New creates an engine over an already-built tree.
func New(doc *tree.Tree, opts ...Option) *Engine {
	cfg := newConfig(opts)
	return &Engine{
		doc:      doc,
		strategy: cfg.strategy,
		idx:      index.New(doc),
	}
}

// Patched returns a new engine over newDoc whose index is derived from this
// engine's by splicing (index.Patch) instead of being rebuilt from scratch:
// label caches for untouched labels are carried over (shifted past the
// edit), and only the labels the diff touched start cold.  The
// receiver keeps serving its own document unchanged — the corpus service
// swaps the returned engine in atomically, exactly as with a full rebuild.
func (e *Engine) Patched(newDoc *tree.Tree, spec index.PatchSpec) *Engine {
	return &Engine{
		doc:      newDoc,
		strategy: e.strategy,
		idx:      index.Patch(e.idx, newDoc, spec),
	}
}

// FromXML parses an XML document and returns an engine over it.
func FromXML(src string, opts ...Option) (*Engine, error) {
	doc, err := xmldoc.Parse(src)
	if err != nil {
		return nil, err
	}
	return New(doc, opts...), nil
}

// Document returns the underlying tree.
func (e *Engine) Document() *tree.Tree { return e.doc }

// Index returns the engine's shared index cache (lazily-built XASR, label
// lists/masks, structural-join pairs).  Exposed for the CLI's -timing output
// and the benchmarks; artifacts handed out by it are read-only.
func (e *Engine) Index() *index.Index { return e.idx }

// Release drops the engine's cached index artifacts, returning their memory
// to the collector.  The engine stays fully usable — artifacts rebuild on
// demand — so this is safe to call while queries are in flight.  The corpus
// service calls it on the engine it swaps out of a document slot: in-flight
// stragglers finish correctly against the old engine, which meanwhile stops
// pinning its O(|D|) index structures.
func (e *Engine) Release() { e.idx.Release() }

// once executes a query compiled by compile or compileParsedCQ, for the
// one-shot wrappers below; a query that failed to compile reports the plan as
// far as it got.
func (e *Engine) once(c *Compiled, plan *Plan, err error) (*Result, *Plan, error) {
	if err != nil {
		return nil, plan, err
	}
	return c.Exec(context.Background(), e)
}

// XPath evaluates a Core XPath expression as a unary query from the root and
// returns the selected nodes.  It is a thin wrapper over Prepare + Exec; for
// repeated evaluation of the same query, Prepare once and Exec many times.
func (e *Engine) XPath(query string) (xpath.NodeSet, *Plan, error) {
	res, plan, err := e.once(compile(LangXPath, query, e.strategy))
	if err != nil {
		return nil, plan, err
	}
	return xpath.NodeSet(res.Nodes), plan, nil
}

// ErrNoStrategy is returned when the forced strategy cannot evaluate the
// given query (for example Yannakakis on a cyclic query).
var ErrNoStrategy = errors.New("core: the forced strategy cannot evaluate this query")

// CQ evaluates a conjunctive query written in the datalog-style syntax of
// package cq (for example "Q(x) :- Lab[a](x), Child+(x, y), Lab[b](y).").
// It is a thin wrapper over Prepare + Exec.
func (e *Engine) CQ(query string) ([]cq.Answer, *Plan, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return nil, &Plan{Language: "cq"}, err
	}
	return e.EvaluateCQ(q)
}

// EvaluateCQ evaluates an already-parsed conjunctive query, picking the
// technique as the survey prescribes:
//
//   - acyclic queries go to the holistic arc-consistency evaluator
//     (Prop. 6.10) or Yannakakis (Theorem 4.1), whichever is forced, with
//     arc-consistency as the Auto default;
//   - cyclic Boolean queries whose axes fit a tractable signature go to the
//     X-property evaluator (Theorem 6.5);
//   - other cyclic queries are rewritten into an acyclic union (Theorem 5.1)
//     when small enough, and fall back to the naive backtracking search
//     otherwise (the NP-complete general case, Theorem 6.8).
//
// It compiles the parsed query and runs it once; for repeated evaluation of
// the same query, Prepare once and Exec many times.
func (e *Engine) EvaluateCQ(q *cq.Query) ([]cq.Answer, *Plan, error) {
	res, plan, err := e.once(compileParsedCQ(q, e.strategy))
	if err != nil {
		return nil, plan, err
	}
	return res.Answers, plan, nil
}

// Datalog evaluates a monadic datalog program (package mdatalog syntax) and
// returns the nodes in the query predicate.  It is a thin wrapper over
// Prepare + Exec; preparing once amortizes the TMNF conversion and compile.
func (e *Engine) Datalog(program string) ([]tree.NodeID, *Plan, error) {
	res, plan, err := e.once(compile(LangDatalog, program, e.strategy))
	if err != nil {
		return nil, plan, err
	}
	return res.Nodes, plan, nil
}

// Twig evaluates a conjunctive, absolute, //-rooted Core XPath expression by
// translating it to a conjunctive query and running the holistic evaluator;
// this is the "twig pattern matching" route of Section 6.  It is a thin
// wrapper over Prepare + Exec.
func (e *Engine) Twig(query string) ([]cq.Answer, *Plan, error) {
	res, plan, err := e.once(compile(LangTwig, query, e.strategy))
	if err != nil {
		return nil, plan, err
	}
	return res.Answers, plan, nil
}
