// Package service is the corpus query layer on top of the single-document
// core engine: a concurrency-safe pool of named documents, sharded across
// independent engine maps so corpus mutation and lookup never contend on one
// lock, with an LRU plan cache so even one-shot Query calls hit compiled
// plans, and fan-out batch routing (QueryCorpus) built on the prepare/execute
// worker pools.
//
// The paper's pipeline (conf_pods_Koch06) compiles a tree query once and runs
// it many times over one document; Service extends that economics to a
// multi-user, multi-document setting: every (document, version, language,
// query text) tuple is prepared at most once while it stays warm in the
// cache, and the same compiled matcher/plan is reused across users, requests,
// and the corpus-wide fan-out.
//
// Documents are live: every corpus entry carries a version number, and Update
// replaces a document by building the new engine off to the side,
// re-preparing the document's warm plans against it (core.PreparedQuery.
// Reprepare reuses all document-independent compilation), and atomically
// swapping the versioned entry — so updates neither drop the plan cache nor
// block readers, which finish against the engine they looked up.
//
// A Service is safe for concurrent use by multiple goroutines, including
// concurrent Add/Remove/Update while queries are in flight.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
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
)

// planKey identifies one compiled plan in the cache.  The user-level view is
// (language, query text); the document name and version complete the key
// because a PreparedQuery is bound to one engine, and an updated document gets
// a fresh engine under a bumped version — keying on the version makes every
// pre-swap plan unreachable the instant the swap publishes, with no sweep
// racing in-flight lookups.
type planKey struct {
	doc     string
	version uint64
	lang    string
	text    string
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

// shard is one slice of the engine pool: an independently locked map of
// document name to versioned entry, plus this shard's slice of the plan
// cache.  Document names are hashed onto shards, so concurrent operations on
// documents of different shards never share a lock; and because plan keys are
// document-scoped, a document's plans live on the same shard as its entry —
// plan lookups for documents on different shards never contend either.
//
// Lock order (per shard): mu may be taken first and the same shard's planMu
// second (Update does, to publish warm plans atomically with the swap);
// planMu is never held while taking any shard's mu.  Locks of different
// shards are never nested.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*docEntry

	// planMu guards plans, this shard's independently capped LRU of compiled
	// plans.  Its critical sections are a map lookup plus a list splice, and
	// with the cache sharded by document they are spread over as many locks
	// as the engine pool itself.
	planMu sync.Mutex
	plans  *lru.Cache[planKey, *core.PreparedQuery]
}

// Service owns a corpus of named documents and routes queries to their
// engines.  Construct with New.
type Service struct {
	shards     []*shard
	seed       maphash.Seed
	workers    int
	engineOpts []core.Option
	clauseCap  int

	// The plan cache lives on the shards (see shard.plans): each shard owns
	// an LRU capped at planCap/len(shards), so the whole service still holds
	// a deterministic total of at most WithPlanCacheSize plans — the cap is
	// enforced per shard rather than globally, which means a corpus whose hot
	// documents all hash to one shard can evict earlier than a global LRU
	// would (documented skew, traded for lookups that never cross shards).
	planHits  atomic.Uint64
	planMiss  atomic.Uint64
	planSkips atomic.Uint64
	queries   atomic.Uint64
	docsCount atomic.Int64

	updates     atomic.Uint64
	replans     atomic.Uint64
	replanFails atomic.Uint64

	// Incremental-update counters: patched vs rebuilt swaps, plans whose
	// label set was disjoint from the edit, and per-phase wall-clock totals
	// (diff, patch, build, reprepare, swap) in nanoseconds.
	patchRatio     float64
	patchedUpdates atomic.Uint64
	rebuildUpdates atomic.Uint64
	planLabelSkips atomic.Uint64
	updPhaseNanos  [updPhaseCount]atomic.Int64

	// prepDur is the per-stage prepare histogram
	// (treeqd_prepare_duration_seconds{lang,phase}), nil unless WithMetrics
	// was given.  Observed only on plan-cache misses and Update re-prepares,
	// so the cached-plan hot path never touches it.
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
	// PlanCacheHits / PlanCacheMisses count plan-cache lookups; a miss pays
	// one Engine.Prepare (parse + classify + plan + compile).
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
	// PlanReprepares counts warm plan re-prepares performed by Update: plans
	// rebound to the new engine (reusing their parsed, translated, or compiled
	// document-independent artifacts) instead of being dropped to cold-compile
	// on next use.
	PlanReprepares uint64
	// PlanReprepareFailures counts plans Update could not rebind to the new
	// document (for example a query the new engine's forced strategy cannot
	// run); such plans are dropped and the next use pays a cold prepare.
	PlanReprepareFailures uint64
	// PatchedUpdates / RebuildUpdates split Updates by how the new engine was
	// derived: by splicing the old index (small single-subtree edits) or by a
	// full rebuild (large or non-local edits, or patching disabled).
	PatchedUpdates, RebuildUpdates uint64
	// PlansSkippedByLabelSet counts warm plans whose label set was disjoint
	// from a shape-preserving edit's touched labels: plans the write could
	// not have changed the answers of (see UpdateOutcome.PlansSkipped).
	PlansSkippedByLabelSet uint64
	// Index aggregates the index-cache counters (XASR/pair builds and hits,
	// label lists/masks/rows, evictions, releases) across every engine
	// currently in the corpus.  Engines swapped out by Update or Remove stop
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
	shards     int
	workers    int
	planCap    int
	clauseCap  int
	patchRatio float64
	engineOpts []core.Option
	metrics    *obsv.Registry
}

// WithShards sets the number of engine-pool shards (default 8; values < 1 are
// raised to 1).  More shards reduce lock contention when many goroutines add,
// remove, and look up documents concurrently.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithWorkers sets the worker-pool width used by QueryAll and QueryCorpus
// (default GOMAXPROCS; values < 1 mean GOMAXPROCS at call time).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithPlanCacheSize caps the plan cache at n compiled plans in total, LRU
// evicted (default 512; 0 means unbounded).  The cache is sharded with the
// engine pool: each shard's LRU is capped at n/shards (at least 1), so the
// total never exceeds n but a document-skewed workload can evict from a hot
// shard while cold shards have room.
func WithPlanCacheSize(n int) Option {
	return func(c *config) { c.planCap = n }
}

// WithPlanClauseCap denies plan-cache admission to prepared queries whose
// largest artifact exceeds n clauses (core.PreparedQuery.Clauses; 0, the
// default, admits everything).  A cyclic query's rewriting into acyclic
// disjuncts is exponential in its variables while the LRU counts entries, not
// bytes; without this cap a handful of huge unions can pin more memory than
// thousands of ordinary plans.
// Oversize queries still prepare and execute correctly on every call -- they
// just pay their own compilation instead of displacing the working set.
func WithPlanClauseCap(n int) Option {
	return func(c *config) { c.clauseCap = n }
}

// WithEngineOptions passes options (strategy, pair-cache cap, ...) to every
// engine the service creates for an added document.
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
// and each warm re-prepare during Update observes one sample per stage the
// route actually performed (parse, translate, compile, build — see
// core.Phase), so the histogram separates the one-off compilation cost from
// the per-request execution latency.  A nil registry disables the histogram.
func WithMetrics(reg *obsv.Registry) Option {
	return func(c *config) { c.metrics = reg }
}

// New creates an empty corpus service.
func New(opts ...Option) *Service {
	cfg := config{shards: 8, planCap: 512, patchRatio: DefaultPatchRatio}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		cfg.shards = 1
	}
	s := &Service{
		shards:     make([]*shard, cfg.shards),
		seed:       maphash.MakeSeed(),
		workers:    cfg.workers,
		engineOpts: cfg.engineOpts,
		clauseCap:  cfg.clauseCap,
		patchRatio: cfg.patchRatio,
	}
	if cfg.metrics != nil {
		s.prepDur = cfg.metrics.NewHistogramVec("treeqd_prepare_duration_seconds",
			"Per-stage query preparation time, observed on plan-cache misses and update re-prepares.",
			obsv.DurationBuckets, "lang", "phase")
		s.updDur = cfg.metrics.NewHistogramVec("treeqd_update_duration_seconds",
			"Per-phase document update time (diff, patch, build, reprepare, swap).",
			obsv.DurationBuckets, "phase")
	}
	perShardCap := 0
	if cfg.planCap > 0 {
		perShardCap = cfg.planCap / cfg.shards
		if perShardCap < 1 {
			perShardCap = 1
		}
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			entries: map[string]*docEntry{},
			plans:   lru.New[planKey, *core.PreparedQuery](perShardCap),
		}
	}
	return s
}

func (s *Service) shardFor(doc string) *shard {
	return s.shards[maphash.String(s.seed, doc)%uint64(len(s.shards))]
}

// observePhases records one prepare-histogram sample per stage the route
// performed.  No-op when WithMetrics was not given.
func (s *Service) observePhases(lang string, pq *core.PreparedQuery) {
	if s.prepDur == nil {
		return
	}
	for _, ph := range pq.Phases() {
		s.prepDur.With(lang, ph.Name).ObserveDuration(ph.Duration)
	}
}

// Add places a document in the corpus under name at version 1, building its
// engine with the service's engine options.  It fails on duplicate names; use
// Update to replace a live document, or Remove first to recycle the name.
func (s *Service) Add(name string, doc *tree.Tree) error {
	eng := core.New(doc, s.engineOpts...)
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateDocument, name)
	}
	sh.entries[name] = &docEntry{eng: eng, version: 1}
	s.docsCount.Add(1)
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

// Update replaces the named document with doc under a bumped version number,
// re-preparing the document's warm plans instead of dropping them.  It returns
// the new version, or ErrUnknownDocument when the name is not in the corpus
// (Update never creates a document: a racing Remove wins).  Update is
// UpdateDoc without the outcome report; see UpdateDoc for the full
// patch-vs-rebuild semantics.
func (s *Service) Update(name string, doc *tree.Tree) (uint64, error) {
	o, err := s.UpdateDoc(name, doc)
	return o.Version, err
}

// UpdateXML parses src and updates the named document with the result.
func (s *Service) UpdateXML(name, src string) (uint64, error) {
	doc, err := xmldoc.Parse(src)
	if err != nil {
		return 0, fmt.Errorf("service: document %q: %w", name, err)
	}
	return s.Update(name, doc)
}

// Remove drops the named document and purges its cached plans (all versions),
// reporting whether it was present.
func (s *Service) Remove(name string) bool {
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, ok := sh.entries[name]
	delete(sh.entries, name)
	sh.mu.Unlock()
	if ok {
		s.docsCount.Add(-1)
		sh.planMu.Lock()
		sh.plans.RemoveFunc(func(k planKey) bool { return k.doc == name })
		sh.planMu.Unlock()
	}
	return ok
}

// Len returns the number of documents in the corpus.
func (s *Service) Len() int { return int(s.docsCount.Load()) }

// Names returns the sorted names of the corpus documents.
func (s *Service) Names() []string {
	var names []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for name := range sh.entries {
			names = append(names, name)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// entry returns the current versioned entry of the named document.  The entry
// is immutable; callers may use its engine and version for as long as they
// like, even across a concurrent Update swap.
func (s *Service) entry(name string) (*docEntry, error) {
	sh := s.shardFor(name)
	sh.mu.RLock()
	e, ok := sh.entries[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	return e, nil
}

// Engine returns the engine currently serving the named document, or
// ErrUnknownDocument.  The engine is safe for concurrent use; going through
// it directly bypasses the service's plan cache and counters, and the corpus
// may swap in a newer engine at any time (see Update).
func (s *Service) Engine(name string) (*core.Engine, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, err
	}
	return e.eng, nil
}

// EngineVersion returns the engine currently serving the named document
// together with its version, from one consistent corpus read — callers that
// need the pair must not assemble it from separate Engine and Version calls,
// which an interleaved Update could tear.
func (s *Service) EngineVersion(name string) (*core.Engine, uint64, error) {
	e, err := s.entry(name)
	if err != nil {
		return nil, 0, err
	}
	return e.eng, e.version, nil
}

// Version returns the current version of the named document: 1 after Add,
// bumped by each Update, restarted by Remove+Add.
func (s *Service) Version(name string) (uint64, error) {
	e, err := s.entry(name)
	if err != nil {
		return 0, err
	}
	return e.version, nil
}

// Versions returns a point-in-time snapshot of every document's current
// version, keyed by name.
func (s *Service) Versions() map[string]uint64 {
	out := make(map[string]uint64)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for name, e := range sh.entries {
			out[name] = e.version
		}
		sh.mu.RUnlock()
	}
	return out
}

// prepared returns the compiled plan for (doc@version, lang, text), hitting
// the plan cache when warm.  Concurrent misses on the same key may prepare
// twice; both results are correct and the second Add just refreshes the
// entry, so the race is left unsynchronized rather than holding the cache
// lock across a Prepare.
func (s *Service) prepared(ent *docEntry, doc, lang, text string) (*core.PreparedQuery, error) {
	sh := s.shardFor(doc)
	k := planKey{doc: doc, version: ent.version, lang: lang, text: text}
	sh.planMu.Lock()
	pq, ok := sh.plans.Get(k)
	sh.planMu.Unlock()
	if ok {
		s.planHits.Add(1)
		return pq, nil
	}
	s.planMiss.Add(1)
	pq, err := ent.eng.Prepare(lang, text)
	if err != nil {
		return nil, err
	}
	s.observePhases(lang, pq)
	// Admission control: a prepared artifact above the clause cap (the
	// rewrite route's disjunct union is exponential in the query's variables)
	// is executed but never cached, so one huge plan cannot pin more memory
	// than the whole LRU of ordinary plans (the LRU counts entries, not
	// bytes).
	if s.clauseCap > 0 && pq.Clauses() > s.clauseCap {
		s.planSkips.Add(1)
		return pq, nil
	}
	sh.planMu.Lock()
	sh.plans.Add(k, pq)
	sh.planMu.Unlock()
	// Guard against a concurrent Remove, Remove+Add, or Update of the
	// document: if the corpus no longer maps doc to the version we prepared
	// on, drop the entry we just cached.  Remove and Update both change the
	// corpus mapping before (or atomically with) purging plans, so either
	// this recheck observes the change and removes the stale plan itself, or
	// the change happened after the recheck and the purge sweeps it.  A
	// shard's planMu is never held while taking any shard's mu, so this
	// nesting cannot deadlock against Update's shard-then-plan order.
	if cur, err := s.entry(doc); err != nil || cur.version != ent.version || cur.eng != ent.eng {
		sh.planMu.Lock()
		// Compare-and-remove: a concurrent query against a re-added document
		// may have already cached a fresh plan under this key; only our own
		// stale entry is dropped.
		if cached, ok := sh.plans.Get(k); ok && cached == pq {
			sh.plans.Remove(k)
		}
		sh.planMu.Unlock()
	}
	return pq, nil
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
	pq, err := s.prepared(ent, doc, lang, text)
	tr.Observe("plan", time.Since(planStart))
	if err != nil {
		return nil, nil, ent.version, err
	}
	s.queries.Add(1)
	execStart := time.Now()
	res, plan, err := pq.Exec(ctx)
	tr.Observe("exec", time.Since(execStart))
	return res, plan, ent.version, err
}

// QueryAll prepares (through the plan cache) and executes a mixed-language
// batch against the named document on the service's worker pool, returning
// one BatchResult per request in input order.
func (s *Service) QueryAll(ctx context.Context, doc string, reqs []core.QueryRequest) ([]core.BatchResult, error) {
	ent, err := s.entry(doc)
	if err != nil {
		return nil, err
	}
	out := make([]core.BatchResult, len(reqs))
	core.RunPool(len(reqs), s.workers, func(i int) {
		out[i] = core.BatchResult{Index: i}
		pq, err := s.prepared(ent, doc, reqs[i].Lang, reqs[i].Text)
		if err != nil {
			out[i].Err = err
			return
		}
		s.queries.Add(1)
		out[i].Result, out[i].Plan, out[i].Err = pq.Exec(ctx)
	})
	return out, nil
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
// document name.  The plan cache makes repeated fan-outs compile-free; a
// cancelled context aborts documents that have not started, reporting the
// context error in their DocResult (partial-failure semantics: completed
// documents keep their results).  WithDocTimeout adds a per-document bound
// derived from ctx.
func (s *Service) QueryCorpus(ctx context.Context, lang, text string, opts ...CorpusOption) []DocResult {
	var cfg corpusConfig
	for _, o := range opts {
		o(&cfg)
	}
	names := s.Names()
	out := make([]DocResult, len(names))
	core.RunPool(len(names), s.workers, func(i int) {
		out[i] = DocResult{Doc: names[i]}
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			return
		}
		ent, err := s.entry(names[i])
		if err != nil {
			// Removed between the snapshot and now; report it as unknown.
			out[i].Err = err
			return
		}
		out[i].Version = ent.version
		pq, err := s.prepared(ent, names[i], lang, text)
		if err != nil {
			out[i].Err = err
			return
		}
		s.queries.Add(1)
		out[i].Result, out[i].Plan, out[i].Err = func() (*core.Result, *core.Plan, error) {
			if cfg.docTimeout <= 0 {
				return pq.Exec(ctx)
			}
			docCtx, cancel := context.WithTimeout(ctx, cfg.docTimeout)
			defer cancel()
			return pq.Exec(docCtx)
		}()
	})
	return out
}

// IndexStats aggregates the index-cache counters of every engine currently
// serving a corpus document (one Snapshot per live engine, summed).  It also
// reports, through the second return, how many of those documents are
// multi-labeled.
func (s *Service) IndexStats() (index.Stats, int) {
	var agg index.Stats
	multi := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			snap := e.eng.Index().Snapshot()
			if snap.MultiLabeled {
				multi++
			}
			agg = agg.Add(snap)
		}
		sh.mu.RUnlock()
	}
	return agg, multi
}

// PlanShardSizes returns the current number of cached plans on each shard, in
// shard order — the observability view of the sharded cache (exposed by the
// server's /statusz), where cap skew across a document-heavy shard shows up.
func (s *Service) PlanShardSizes() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.planMu.Lock()
		out[i] = sh.plans.Len()
		sh.planMu.Unlock()
	}
	return out
}

// Stats returns the current service counters.  Plan-cache size, cap, and
// evictions are summed across the shards.
func (s *Service) Stats() Stats {
	var size, capacity int
	var evictions uint64
	for _, sh := range s.shards {
		sh.planMu.Lock()
		size += sh.plans.Len()
		capacity += sh.plans.Cap()
		evictions += sh.plans.Evictions()
		sh.planMu.Unlock()
	}
	ixStats, multiDocs := s.IndexStats()
	return Stats{
		Index:                  ixStats,
		MultiLabeledDocs:       multiDocs,
		Docs:                   s.Len(),
		Queries:                s.queries.Load(),
		PlanCacheHits:          s.planHits.Load(),
		PlanCacheMisses:        s.planMiss.Load(),
		PlanCacheEvictions:     evictions,
		PlanCacheSkips:         s.planSkips.Load(),
		PlanCacheSize:          size,
		PlanCacheCap:           capacity,
		Updates:                s.updates.Load(),
		PlanReprepares:         s.replans.Load(),
		PlanReprepareFailures:  s.replanFails.Load(),
		PatchedUpdates:         s.patchedUpdates.Load(),
		RebuildUpdates:         s.rebuildUpdates.Load(),
		PlansSkippedByLabelSet: s.planLabelSkips.Load(),
	}
}
