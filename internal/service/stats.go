package service

import (
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/obsv"
)

// Row is one scalar counter of the stats table: the section and key it has in
// /v1/statusz and in treeq -timing, and its value in one snapshot.  Each
// counter is declared once, as a Row, together with its metric family (if it
// has one), so every surface renders the same rows under the same names.
type Row struct {
	// Section is the statusz object the row sits in; "" is a top-level key.
	Section, Key string
	Value        func(*Snapshot) int64
}

// Object renders rows read from sn as the statusz JSON object: each row's
// value under its key, inside its section's object.
func Object(rows []Row, sn *Snapshot) map[string]any {
	out := map[string]any{}
	for _, r := range rows {
		if r.Section == "" {
			out[r.Key] = r.Value(sn)
			continue
		}
		sec, _ := out[r.Section].(map[string]any)
		if sec == nil {
			sec = map[string]any{}
			out[r.Section] = sec
		}
		sec[r.Key] = r.Value(sn)
	}
	return out
}

// WriteText writes rows read from sn as one "section: key=value ..." line per
// section, keeping only the named sections, in the order named.
func WriteText(w io.Writer, rows []Row, sn *Snapshot, sections ...string) error {
	var b []byte
	for _, sec := range sections {
		line := len(b)
		for _, r := range rows {
			if r.Section != sec {
				continue
			}
			if len(b) == line {
				b = append(append(b, sec...), ':')
			}
			b = append(append(append(b, ' '), r.Key...), '=')
			b = strconv.AppendInt(b, r.Value(sn), 10)
		}
		if len(b) > line {
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// Snapshot is one reading of every row of the service's stats table: the
// service counters, each document's version (read under the same lock as
// Docs), and the process-wide pools and similarity funnel.
type Snapshot struct {
	Stats
	Versions map[string]uint64
	Pools    obsv.PoolCounters
	// The similarity route's funnel (core.SimilarCounters): candidates
	// considered, eliminated per lower bound, and full TED kernel calls.
	SimilarCandidates, SimilarSizePruned, SimilarHistPruned, SimilarKernelCalls uint64
}

func processSnapshot() *Snapshot {
	sn := &Snapshot{Pools: obsv.Pools()}
	sn.SimilarCandidates, sn.SimilarSizePruned, sn.SimilarHistPruned, sn.SimilarKernelCalls = core.SimilarCounters()
	return sn
}

// Snapshot reads the service's stats table.
func (s *Service) Snapshot() *Snapshot {
	sn := processSnapshot()
	s.planMu.Lock()
	sn.PlanCacheSize, sn.PlanCacheCap, sn.PlanCacheEvictions = s.plans.Len(), s.plans.Cap(), s.plans.Evictions()
	s.planMu.Unlock()
	s.mu.RLock()
	sn.Versions = make(map[string]uint64, len(s.docs))
	for name, e := range s.docs {
		sn.Versions[name] = e.version
		ix := e.eng.Index().Snapshot()
		if ix.MultiLabeled {
			sn.MultiLabeledDocs++
		}
		sn.Index = sn.Index.Add(ix)
	}
	s.mu.RUnlock()
	sn.Docs = len(sn.Versions)
	sn.Queries = s.queries.Load()
	sn.PlanCacheHits = s.planHits.Load()
	sn.PlanCacheMisses = s.planMiss.Load()
	sn.PlanCacheSkips = s.planSkips.Load()
	sn.Updates = s.updates.Load()
	sn.PlanReprepares = s.plansCarried.Load()
	sn.PatchedUpdates = s.patchedUpdates.Load()
	sn.RebuildUpdates = s.rebuildUpdates.Load()
	sn.PlansSkippedByLabelSet = s.planLabelSkips.Load()
	return sn
}

// EngineSnapshot reads the stats table of one engine outside a service (treeq
// on a single document): its index counters and the process-wide rows.
func EngineSnapshot(eng *core.Engine) *Snapshot {
	sn := processSnapshot()
	sn.Index = eng.Index().Snapshot()
	if sn.Index.MultiLabeled {
		sn.MultiLabeledDocs = 1
	}
	return sn
}

// Table is the stats table being declared: its rows, and the registry on
// which the rows that have a metric family register it, collected from snap()
// at scrape time.  A nil registry only collects the rows.
type Table struct {
	Rows []Row
	reg  *obsv.Registry
	snap func() *Snapshot
}

// Stat declares a row with no metric family.
func (t *Table) Stat(section, key string, value func(*Snapshot) int64) {
	t.Rows = append(t.Rows, Row{Section: section, Key: key, Value: value})
}

// Counter declares a row and its counter family.
func (t *Table) Counter(section, key, name, help string, value func(*Snapshot) int64) {
	t.family(section, key, name, obsv.TypeCounter, help, value)
}

// Gauge declares a row and its gauge family.
func (t *Table) Gauge(section, key, name, help string, value func(*Snapshot) int64) {
	t.family(section, key, name, obsv.TypeGauge, help, value)
}

func (t *Table) family(section, key, name, typ, help string, value func(*Snapshot) int64) {
	t.Stat(section, key, value)
	t.reg.RegisterFunc(name, typ, help, nil, func(emit obsv.Emit) { emit(float64(value(t.snap()))) })
}

// StatTable declares the service's rows of the stats table: the service,
// index, updates, similar and pools sections of /v1/statusz.  Each row that
// has a metric family registers it on reg, reading snap() at scrape time; a
// nil reg only collects the rows.  The caller may declare more rows on the
// table it returns.
func StatTable(reg *obsv.Registry, snap func() *Snapshot) *Table {
	t := &Table{reg: reg, snap: snap}
	t.Gauge("service", "docs", "treeqd_corpus_docs", "Documents in the corpus.",
		func(sn *Snapshot) int64 { return int64(sn.Docs) })
	t.Counter("service", "queries", "treeqd_queries_total", "Single-document query executions routed through the service.",
		func(sn *Snapshot) int64 { return int64(sn.Queries) })
	t.Counter("service", "updates", "treeqd_updates_total", "Completed document update swaps.",
		func(sn *Snapshot) int64 { return int64(sn.Updates) })
	t.Counter("service", "plan_cache_hits", "treeqd_plan_cache_hits_total", "Plan-cache lookups served warm.",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheHits) })
	t.Counter("service", "plan_cache_misses", "treeqd_plan_cache_misses_total", "Plan-cache lookups that paid a cold prepare.",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheMisses) })
	t.Counter("service", "plan_cache_evictions", "treeqd_plan_cache_evictions_total", "Plans evicted to respect the cache cap.",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheEvictions) })
	t.Counter("service", "plan_cache_skips", "treeqd_plan_cache_skips_total", "Plans denied cache admission by the clause cap.",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheSkips) })
	t.Gauge("service", "plan_cache_size", "treeqd_plan_cache_size", "Cached plans.",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheSize) })
	t.Gauge("service", "plan_cache_cap", "treeqd_plan_cache_cap", "Plan-cache capacity (0 = unbounded).",
		func(sn *Snapshot) int64 { return int64(sn.PlanCacheCap) })

	// The index counters, summed over every live engine.
	t.Gauge("index", "multi_labeled_docs", "treeqd_multi_labeled_docs", "Corpus documents with multi-labeled nodes.",
		func(sn *Snapshot) int64 { return int64(sn.MultiLabeledDocs) })
	t.Stat("index", "label_list_builds", func(sn *Snapshot) int64 { return int64(sn.Index.LabelListBuilds) })
	t.Stat("index", "label_list_hits", func(sn *Snapshot) int64 { return int64(sn.Index.LabelListHits) })
	t.Stat("index", "label_mask_builds", func(sn *Snapshot) int64 { return int64(sn.Index.LabelMaskBuilds) })
	t.Stat("index", "label_mask_hits", func(sn *Snapshot) int64 { return int64(sn.Index.LabelMaskHits) })
	t.Stat("index", "ted_builds", func(sn *Snapshot) int64 { return int64(sn.Index.TEDBuilds) })
	t.Stat("index", "releases", func(sn *Snapshot) int64 { return int64(sn.Index.Releases) })

	// Incremental updates: how each swap derived its engine, the cached plans
	// carried across, and those the edit could not affect.  Per-phase time is
	// the treeqd_update_duration_seconds{phase} histogram (WithMetrics).
	// Labelled families register directly, beside their rows.
	t.Stat("updates", "patched", func(sn *Snapshot) int64 { return int64(sn.PatchedUpdates) })
	t.Stat("updates", "rebuilt", func(sn *Snapshot) int64 { return int64(sn.RebuildUpdates) })
	reg.RegisterFunc("treeqd_update_patch_total", obsv.TypeCounter,
		"Document update swaps by how the new engine was derived (patched = index splice, rebuilt = from scratch).",
		[]string{"mode"},
		func(emit obsv.Emit) {
			sn := snap()
			emit(float64(sn.PatchedUpdates), "patched")
			emit(float64(sn.RebuildUpdates), "rebuilt")
		})
	t.Counter("updates", "plans_carried", "treeqd_update_plans_carried_total", "Cached plans carried across document updates, summed over updates.",
		func(sn *Snapshot) int64 { return int64(sn.PlanReprepares) })
	t.Counter("updates", "plans_skipped_by_label_set", "treeqd_update_plans_skipped_total",
		"Carried plans whose label set was disjoint from a shape-preserving edit's touched labels: the write could not change their answers.",
		func(sn *Snapshot) int64 { return int64(sn.PlansSkippedByLabelSet) })

	// The similarity route's pruning funnel: candidates in, lower-bound
	// eliminations per bound, kernel calls out.
	t.Counter("similar", "candidates", "treeqd_similar_candidates_total", "Similarity-search candidate subtrees considered.",
		func(sn *Snapshot) int64 { return int64(sn.SimilarCandidates) })
	t.Stat("similar", "size_pruned", func(sn *Snapshot) int64 { return int64(sn.SimilarSizePruned) })
	t.Stat("similar", "hist_pruned", func(sn *Snapshot) int64 { return int64(sn.SimilarHistPruned) })
	reg.RegisterFunc("treeqd_similar_pruned_total", obsv.TypeCounter,
		"Similarity candidates eliminated by a lower bound before the TED kernel.", []string{"bound"},
		func(emit obsv.Emit) {
			sn := snap()
			emit(float64(sn.SimilarSizePruned), "size")
			emit(float64(sn.SimilarHistPruned), "histogram")
		})
	t.Counter("similar", "ted_kernel_calls", "treeqd_ted_kernel_calls_total", "Full tree-edit-distance kernel invocations.",
		func(sn *Snapshot) int64 { return int64(sn.SimilarKernelCalls) })

	// The process-wide allocation pools.
	t.Stat("pools", "bitset_pool_hits", func(sn *Snapshot) int64 { return sn.Pools.BitsetPoolHits })
	t.Stat("pools", "bitset_pool_misses", func(sn *Snapshot) int64 { return sn.Pools.BitsetPoolMisses })
	t.Stat("pools", "ted_dp_hits", func(sn *Snapshot) int64 { return sn.Pools.TedDPHits })
	t.Stat("pools", "ted_dp_misses", func(sn *Snapshot) int64 { return sn.Pools.TedDPMisses })
	reg.RegisterFunc("treeqd_pool_hits_total", obsv.TypeCounter,
		"Buffer acquisitions served from a pool.", []string{"pool"},
		func(emit obsv.Emit) {
			p := snap().Pools
			emit(float64(p.BitsetPoolHits), "bitset")
			emit(float64(p.TedDPHits), "ted_dp")
		})
	reg.RegisterFunc("treeqd_pool_misses_total", obsv.TypeCounter,
		"Buffer acquisitions that fell through to a fresh allocation.", []string{"pool"},
		func(emit obsv.Emit) {
			p := snap().Pools
			emit(float64(p.BitsetPoolMisses), "bitset")
			emit(float64(p.TedDPMisses), "ted_dp")
		})
	return t
}
