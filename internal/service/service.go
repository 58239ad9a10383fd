// Package service is the corpus query layer on top of the single-document
// core engine: a concurrency-safe map of named documents, with an LRU plan
// cache so even one-shot Query calls hit compiled plans, and corpus-wide
// fan-out (QueryCorpus) on a worker pool.
//
// The paper's pipeline (conf_pods_Koch06) compiles a tree query once and runs
// it many times; every compilation it describes is a function of the query
// alone.  Service extends that economics to a multi-user, multi-document
// setting: every (language, query text) pair is compiled at most once while
// it stays warm in the cache, and the same core.Compiled serves every
// document, every revision of each, every user and the corpus-wide fan-out.
//
// Documents are live: every corpus entry carries a version number, and
// UpdateDoc replaces a document by building (or patching) the new engine off
// to the side and atomically swapping the versioned entry — so updates
// neither touch the plan cache nor block readers, which finish against the
// engine they looked up.
//
// A Service is safe for concurrent use by multiple goroutines, including
// concurrent Add/Remove/UpdateDoc while queries are in flight.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/lru"
	"repro/internal/obsv"
	"repro/internal/tree"
	"repro/internal/xmldoc"
)

// Errors reported by the corpus operations.
var (
	// ErrUnknownDocument is returned when a query names a document that is
	// not (or no longer) in the corpus.
	ErrUnknownDocument = errors.New("service: unknown document")
	// ErrDuplicateDocument is returned by Add for a name already in use.
	ErrDuplicateDocument = errors.New("service: document already in corpus")
	// ErrPanic is wrapped by the error of a corpus fan-out document whose
	// evaluation panicked (QueryCorpus recovers it).
	ErrPanic = errors.New("query panicked")
)

// planKey identifies one compiled plan in the cache.  A core.Compiled reads
// no document, so the query alone is the key: no write, removal or re-add of
// a document can leave a cached plan stale.
type planKey struct {
	lang string
	text string
}

// docEntry is one versioned slot of the corpus: the engine serving the
// document plus the document's current version number.  Entries are immutable
// after publication — Update installs a fresh entry rather than mutating in
// place — so a reader that loaded an entry can keep using its engine for as
// long as it likes (readers in flight across a swap finish against the old
// engine; there is nothing to tear).
type docEntry struct {
	eng     *core.Engine
	version uint64
}

// Service owns a corpus of named documents and routes queries to their
// engines.  Construct with New.
type Service struct {
	workers    int
	engineOpts []core.Option
	clauseCap  int

	// mu guards docs and names; no other lock is taken while it is held.
	// names is docs' keys in sorted order.  Add and Remove replace it whole
	// and never write into it, so a reader may keep the slice it read after
	// unlocking.
	mu    sync.RWMutex
	docs  map[string]*docEntry
	names []string

	// planMu guards plans, the one LRU of compiled plans for the whole
	// service.  Its critical sections are a map lookup plus a list splice: it
	// is never held across a compile, and never while mu is held.
	planMu    sync.Mutex
	plans     *lru.Cache[planKey, *core.Compiled]
	planHits  atomic.Uint64
	planMiss  atomic.Uint64
	planSkips atomic.Uint64
	queries   atomic.Uint64

	updates      atomic.Uint64
	plansCarried atomic.Uint64

	// Incremental-update counters: patched vs rebuilt swaps, carried plans
	// whose label set was disjoint from the edit, and per-phase wall-clock
	// totals (diff, patch, build, swap) in nanoseconds.
	patchRatio     float64
	patchedUpdates atomic.Uint64
	rebuildUpdates atomic.Uint64
	planLabelSkips atomic.Uint64
	updPhaseNanos  [updPhaseCount]atomic.Int64

	// prepDur is the per-stage prepare histogram
	// (treeqd_prepare_duration_seconds{lang,phase}), nil unless WithMetrics
	// was given.  Observed only on plan-cache misses, so the cached-plan hot
	// path never touches it.
	prepDur *obsv.HistogramVec
	// updDur is the per-phase update histogram
	// (treeqd_update_duration_seconds{phase}), nil unless WithMetrics was
	// given; one sample per phase per UpdateDoc call.
	updDur *obsv.HistogramVec
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Docs is the number of documents in the corpus.
	Docs int
	// Queries counts single-document query executions routed through the
	// service (corpus fan-out counts one per document).
	Queries uint64
	// PlanCacheHits / PlanCacheMisses count plan-cache lookups, one per
	// single-document query and one per corpus fan-out; a miss pays one
	// core.Compile (parse + classify + plan + compile).
	PlanCacheHits, PlanCacheMisses uint64
	// PlanCacheEvictions counts plans evicted to respect the cache cap.
	PlanCacheEvictions uint64
	// PlanCacheSkips counts plans denied cache admission because their
	// materialized artifact exceeded the clause cap (WithPlanClauseCap);
	// they were still prepared and executed, just not retained.
	PlanCacheSkips uint64
	// PlanCacheSize / PlanCacheCap are the current and maximum number of
	// cached plans (cap 0 = unbounded).
	PlanCacheSize, PlanCacheCap int
	// Updates counts completed document update swaps.
	Updates uint64
	// PlanReprepares counts cached plans carried across updates: the size of
	// the plan cache at each completed swap, summed.  A plan reads no
	// document, so every one of them serves the new revision as it is.
	PlanReprepares uint64
	// PatchedUpdates / RebuildUpdates split Updates by how the new engine was
	// derived: by splicing the old index (small single-subtree edits) or by a
	// full rebuild (large or non-local edits, or patching disabled).
	PatchedUpdates, RebuildUpdates uint64
	// PlansSkippedByLabelSet counts the carried plans whose label set was
	// disjoint from a shape-preserving edit's touched labels: plans the write
	// could not have changed the answers of (see UpdateOutcome.PlansSkipped).
	PlansSkippedByLabelSet uint64
	// Index aggregates the index-cache counters (label list and mask builds
	// and hits, TED views, releases) across every engine currently in the
	// corpus.  Engines swapped out by Update or Remove stop
	// contributing, so the aggregate tracks the live corpus.
	Index index.Stats
	// MultiLabeledDocs counts corpus documents with at least one node
	// carrying several labels (attribute-labeled XML, for example); they are
	// served by the same routes as single-labeled documents, since a label
	// mask holds every label of a node.
	MultiLabeledDocs int
}

// Option configures a Service.
type Option func(*config)

type config struct {
	workers    int
	planCap    int
	clauseCap  int
	patchRatio float64
	engineOpts []core.Option
	metrics    *obsv.Registry
}

// WithShards does nothing.
//
// Deprecated: the corpus is one map.  Kept until the benchmark stops calling
// it (ROADMAP item 8b).
func WithShards(int) Option {
	return func(*config) {}
}

// WithWorkers sets the worker-pool width of QueryCorpus's fan-out (default
// GOMAXPROCS; values < 1 mean GOMAXPROCS at call time).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithPlanCacheSize caps the plan cache at n compiled plans, LRU evicted
// (default 512; 0 means unbounded).  One plan serves every document, so n
// counts distinct (language, query text) pairs.
func WithPlanCacheSize(n int) Option {
	return func(c *config) { c.planCap = n }
}

// WithPlanClauseCap denies plan-cache admission to prepared queries whose
// largest artifact exceeds n clauses (core.Compiled.Clauses; 0, the
// default, admits everything).  A cyclic query's rewriting into acyclic
// disjuncts is exponential in its variables while the LRU counts entries, not
// bytes; without this cap a handful of huge unions can pin more memory than
// thousands of ordinary plans.
// Oversize queries still prepare and execute correctly on every call -- they
// just pay their own compilation instead of displacing the working set.
func WithPlanClauseCap(n int) Option {
	return func(c *config) { c.clauseCap = n }
}

// WithEngineOptions passes engine options (the strategy) to every engine the
// service creates for an added document, and the strategy to every query it
// compiles.
func WithEngineOptions(opts ...core.Option) Option {
	return func(c *config) { c.engineOpts = append(c.engineOpts, opts...) }
}

// DefaultPatchRatio is the patch-vs-rebuild threshold UpdateDoc uses when
// WithPatchRatio was not given: an edit qualifies for the index splice when
// the diffed region covers at most this fraction of the larger document.
const DefaultPatchRatio = 0.25

// WithPatchRatio sets the largest edit UpdateDoc will apply by patching the
// old engine's index instead of rebuilding: a single-splice diff patches when
// its region spans at most r * max(|old|, |new|) nodes on both sides (with a
// floor of one node).  r <= 0 disables patching entirely — every update
// rebuilds, which is the pre-incremental behavior and the oracle the
// differential tests compare against.
func WithPatchRatio(r float64) Option {
	return func(c *config) { c.patchRatio = r }
}

// WithMetrics registers the service's prepare-stage histogram
// (treeqd_prepare_duration_seconds{lang,phase}) on reg.  Each plan-cache miss
// observes one sample per stage the route actually performed (parse,
// translate, compile, build — see core.Phase), so the histogram separates the
// one-off compilation cost from the per-request execution latency.  A nil
// registry disables the histogram.
func WithMetrics(reg *obsv.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// New creates an empty corpus service.
func New(opts ...Option) *Service {
	cfg := config{planCap: 512, patchRatio: DefaultPatchRatio}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Service{
		docs:       map[string]*docEntry{},
		workers:    cfg.workers,
		engineOpts: cfg.engineOpts,
		clauseCap:  cfg.clauseCap,
		plans:      lru.New[planKey, *core.Compiled](cfg.planCap),
		patchRatio: cfg.patchRatio,
	}
	if cfg.metrics != nil {
		s.prepDur = cfg.metrics.NewHistogramVec("treeqd_prepare_duration_seconds",
			"Per-stage query preparation time, observed on plan-cache misses.",
			obsv.DurationBuckets, "lang", "phase")
		s.updDur = cfg.metrics.NewHistogramVec("treeqd_update_duration_seconds",
			"Per-phase document update time (diff, patch, build, swap).",
			obsv.DurationBuckets, "phase")
	}
	return s
}

// observePhases records one prepare-histogram sample per stage the route
// performed.  No-op when WithMetrics was not given.
func (s *Service) observePhases(c *core.Compiled) {
	if s.prepDur == nil {
		return
	}
	for _, ph := range c.Phases() {
		s.prepDur.With(c.Language(), ph.Name).ObserveDuration(ph.Duration)
	}
}

// Add places a document in the corpus under name at version 1, building its
// engine with the service's engine options.  It fails on duplicate names; use
// UpdateDoc to replace a live document, or Remove first to recycle the name.
func (s *Service) Add(name string, doc *tree.Tree) error {
	eng := core.New(doc, s.engineOpts...)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateDocument, name)
	}
	s.docs[name] = &docEntry{eng: eng, version: 1}
	i, _ := slices.BinarySearch(s.names, name)
	s.names = slices.Concat(s.names[:i], []string{name}, s.names[i:])
	return nil
}

// AddXML parses src and adds the resulting document under name.
func (s *Service) AddXML(name, src string) error {
	doc, err := xmldoc.Parse(src)
	if err != nil {
		return fmt.Errorf("service: document %q: %w", name, err)
	}
	return s.Add(name, doc)
}

// Remove drops the named document, reporting whether it was present.  The
// plan cache is untouched: no cached plan refers to the document.
func (s *Service) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; !ok {
		return false
	}
	delete(s.docs, name)
	i, _ := slices.BinarySearch(s.names, name)
	s.names = slices.Concat(s.names[:i], s.names[i+1:])
	return true
}

// Len returns the number of documents in the corpus.
func (s *Service) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// entry returns the current versioned entry of the named document.  The entry
// is immutable; callers may use its engine and version for as long as they
// like, even across a concurrent Update swap.
func (s *Service) entry(name string) (*docEntry, error) {
	s.mu.RLock()
	e, ok := s.docs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	return e, nil
}

// Engine returns the engine currently serving the named document, or
// ErrUnknownDocument.  The engine is safe for concurrent use; going through
// it directly bypasses the service's plan cache and counters, and the corpus
// may swap in a newer engine at any time (see UpdateDoc).
func (s *Service) Engine(name string) (*core.Engine, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return e.eng, nil
}

// EngineVersion returns the engine currently serving the named document
// together with its version, from one consistent corpus read — callers that
// need the pair must not assemble it from an Engine call and a Versions
// lookup, which an interleaved Update could tear.  The version is 1 after
// Add, bumped by each UpdateDoc, restarted by Remove+Add.
func (s *Service) EngineVersion(name string) (*core.Engine, uint64, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, 0, err
	}
	return e.eng, e.version, nil
}

// Versions returns a point-in-time snapshot of every document's current
// version, keyed by name: the corpus's names and its size, from one read.
// The map is the caller's.
func (s *Service) Versions() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64, len(s.docs))
	for name, e := range s.docs {
		out[name] = e.version
	}
	return out
}

// plan returns the compiled plan for (lang, text), hitting the plan cache
// when warm.  Concurrent misses on the same key may compile twice; both
// results are correct and the second Add just refreshes the entry, so the
// race is left unsynchronized rather than holding the cache lock across a
// compile.
func (s *Service) plan(lang, text string) (*core.Compiled, error) {
	k := planKey{lang: lang, text: text}
	s.planMu.Lock()
	c, ok := s.plans.Get(k)
	s.planMu.Unlock()
	if ok {
		s.planHits.Add(1)
		return c, nil
	}
	s.planMiss.Add(1)
	c, err := core.Compile(lang, text, s.engineOpts...)
	if err != nil {
		return nil, err
	}
	s.observePhases(c)
	// Admission control: a compiled artifact above the clause cap (the
	// rewrite route's disjunct union is exponential in the query's variables)
	// is executed but never cached, so one huge plan cannot pin more memory
	// than the whole LRU of ordinary plans (the LRU counts entries, not
	// bytes).
	if s.clauseCap > 0 && c.Clauses() > s.clauseCap {
		s.planSkips.Add(1)
		return c, nil
	}
	s.planMu.Lock()
	s.plans.Add(k, c)
	s.planMu.Unlock()
	return c, nil
}

// Query executes one query against the named document through the plan
// cache: the first call per (document, language, text) compiles, later calls
// only execute.  lang is one of the core.Lang* tags.
func (s *Service) Query(ctx context.Context, doc, lang, text string) (*core.Result, *core.Plan, error) {
	res, plan, _, err := s.QueryVersioned(ctx, doc, lang, text)
	return res, plan, err
}

// QueryVersioned is Query plus the version of the document entry the query
// actually executed against — resolved once, so a concurrent Update cannot
// mislabel results computed on the old engine with the new version number.
func (s *Service) QueryVersioned(ctx context.Context, doc, lang, text string) (*core.Result, *core.Plan, uint64, error) {
	tr := obsv.TraceFrom(ctx)
	ent, err := s.entry(doc)
	if err != nil {
		return nil, nil, 0, err
	}
	planStart := time.Now()
	c, err := s.plan(lang, text)
	tr.Observe("plan", time.Since(planStart))
	if err != nil {
		return nil, nil, ent.version, err
	}
	s.queries.Add(1)
	execStart := time.Now()
	res, plan, err := c.Exec(ctx, ent.eng)
	tr.Observe("exec", time.Since(execStart))
	return res, plan, ent.version, err
}

// DocResult is the outcome of one document of a corpus fan-out.
type DocResult struct {
	// Doc is the document name.
	Doc string
	// Version is the document version the query executed against (0 when the
	// document was gone before lookup).
	Version uint64
	// Result is the execution result (nil on error).
	Result *core.Result
	// Plan is the per-execution plan (nil when preparation failed).
	Plan *core.Plan
	// Err is the prepare or execution error, if any.
	Err error
}

// CorpusOption configures one QueryCorpus call.
type CorpusOption func(*corpusConfig)

type corpusConfig struct {
	docTimeout time.Duration
}

// WithDocTimeout bounds each document's share of a corpus fan-out: every
// per-document execution runs under a context derived from the caller's with
// this timeout, so one slow document reports context.DeadlineExceeded in its
// DocResult instead of holding the whole fan-out (and the caller's deadline)
// hostage.  Zero (the default) means no per-document bound beyond the
// caller's own context.
func WithDocTimeout(d time.Duration) CorpusOption {
	return func(c *corpusConfig) { c.docTimeout = d }
}

// QueryCorpus runs one query against every document in the corpus on the
// service's worker pool and returns the per-document results sorted by
// document name.  The plan is resolved once per call and shared by every
// document, so a fan-out compiles at most once.  A cancelled context aborts
// documents that have not started, reporting the context error in their
// DocResult (partial-failure semantics: completed documents keep their
// results), and so does a panic in one document's evaluation.  WithDocTimeout
// adds a per-document bound derived from ctx.
func (s *Service) QueryCorpus(ctx context.Context, lang, text string, opts ...CorpusOption) []DocResult {
	// The options write through a pointer, which moves what it points to to
	// the heap: only a call that passes some pays for that.
	var docTimeout time.Duration
	if len(opts) > 0 {
		cfg := new(corpusConfig)
		for _, o := range opts {
			o(cfg)
		}
		docTimeout = cfg.docTimeout
	}
	s.mu.RLock()
	names := s.names
	s.mu.RUnlock()
	out := make([]DocResult, len(names))
	if len(names) == 0 {
		return out
	}
	// Every document's Result and Plan live in one block per request.
	execs := make([]core.Execution, len(names))
	c, planErr := s.plan(lang, text)
	runPool(len(names), s.workers, func(i int) {
		out[i] = DocResult{Doc: names[i]}
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		ent, err := s.entry(names[i])
		if err != nil {
			// Removed since the names were read; report it as unknown.
			out[i].Err = err
			return
		}
		out[i].Version = ent.version
		if planErr != nil {
			out[i].Err = planErr
			return
		}
		s.queries.Add(1)
		out[i].Result, out[i].Plan, out[i].Err = execDoc(ctx, c, ent.eng, &execs[i], docTimeout, names[i])
	})
	return out
}

// execDoc runs one document of a corpus fan-out into x, under the
// per-document timeout when one is set.  The pool's goroutines are its own,
// out of reach of net/http's per-handler recovery: a panicking evaluator
// fails its document instead of the process.
func execDoc(ctx context.Context, c *core.Compiled, eng *core.Engine, x *core.Execution, timeout time.Duration, doc string) (res *core.Result, plan *core.Plan, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, plan, err = nil, nil, fmt.Errorf("service: %w on %s: %v", ErrPanic, doc, p)
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := c.ExecInto(ctx, eng, x); err != nil {
		return nil, &x.Plan, err
	}
	return &x.Result, &x.Plan, nil
}

// Stats returns the current service counters.
func (s *Service) Stats() Stats { return s.Snapshot().Stats }

// runPool runs do(0..n-1) on min(workers, n) goroutines (GOMAXPROCS when
// workers <= 0) and waits for them: QueryCorpus's fan-out pool.
func runPool(n, workers int, do func(i int)) {
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
