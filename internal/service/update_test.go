package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/xmldoc"
)

// keywordXML builds a small document with exactly n keyword elements, so a
// //keyword query's match count identifies which revision answered it.
func keywordXML(n int) string {
	s := "<site><item><name>x</name><description>"
	for i := 0; i < n; i++ {
		s += "<keyword>k</keyword>"
	}
	return s + "</description></item></site>"
}

func TestUpdateSwapsDocumentAndBumpsVersion(t *testing.T) {
	s := New()
	if err := s.AddXML("d", keywordXML(2)); err != nil {
		t.Fatal(err)
	}
	if _, v, err := s.EngineVersion("d"); err != nil || v != 1 {
		t.Fatalf("version after add = %d, %v; want 1", v, err)
	}
	ctx := context.Background()
	res, _, err := s.Query(ctx, "d", core.LangXPath, "//keyword")
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("v1 query: %d nodes, %v; want 2", len(res.Nodes), err)
	}

	o, err := s.UpdateDocXML("d", keywordXML(5))
	if err != nil {
		t.Fatal(err)
	}
	if o.Version != 2 {
		t.Fatalf("version after update = %d, want 2", o.Version)
	}
	res, _, err = s.Query(ctx, "d", core.LangXPath, "//keyword")
	if err != nil || len(res.Nodes) != 5 {
		t.Fatalf("v2 query: %d nodes, %v; want 5", len(res.Nodes), err)
	}
	if got := s.Versions(); got["d"] != 2 {
		t.Errorf("Versions() = %v, want d:2", got)
	}
}

// TestUpdateKeepsPlansWarm is the acceptance check: after an UpdateDoc swap, a
// previously-cached plan executes without a cold compile — the stats show a
// carried plan and a cache hit, not a second miss.
func TestUpdateKeepsPlansWarm(t *testing.T) {
	s := New()
	if err := s.AddXML("d", keywordXML(2)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "//item/description//keyword"
	if _, _, err := s.Query(ctx, "d", core.LangXPath, q); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.PlanCacheMisses != 1 {
		t.Fatalf("warmup misses = %d, want 1", before.PlanCacheMisses)
	}

	if _, err := s.UpdateDocXML("d", keywordXML(7)); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Query(ctx, "d", core.LangXPath, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 7 {
		t.Fatalf("post-swap query: %d nodes, want 7 (new document)", len(res.Nodes))
	}
	after := s.Stats()
	if after.Updates != 1 {
		t.Errorf("Updates = %d, want 1", after.Updates)
	}
	if after.PlanReprepares != 1 {
		t.Errorf("PlanReprepares = %d, want 1", after.PlanReprepares)
	}
	if after.PlanCacheMisses != before.PlanCacheMisses {
		t.Errorf("post-swap query cold-compiled: misses %d -> %d", before.PlanCacheMisses, after.PlanCacheMisses)
	}
	if after.PlanCacheHits != before.PlanCacheHits+1 {
		t.Errorf("post-swap query did not hit the warm plan: hits %d -> %d", before.PlanCacheHits, after.PlanCacheHits)
	}
}

// TestUpdateCompilesNothing: an update compiles nothing on either path — the
// next query of a cached text hits, the miss count does not move, and the
// outcome counts the cached plan as carried.  A text-only edit (the patch
// path) also counts it as skipped; a rebuild skips nothing.
func TestUpdateCompilesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []Option
		patch bool
	}{
		{"patch", nil, true},
		{"rebuild", []Option{WithPatchRatio(0)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts...)
			if err := s.AddXML("d", keywordXML(2)); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			const q = "//item/description//keyword"
			if _, _, err := s.Query(ctx, "d", core.LangXPath, q); err != nil {
				t.Fatal(err)
			}
			before := s.Stats()
			o, err := s.UpdateDocXML("d", strings.Replace(keywordXML(2), ">k<", ">changed<", 1))
			if err != nil {
				t.Fatal(err)
			}
			if o.Patched != tc.patch || o.PlansCarried != 1 {
				t.Fatalf("outcome %+v, want patched=%v with 1 plan carried", o, tc.patch)
			}
			if wantSkipped := map[bool]int{true: 1, false: 0}[tc.patch]; o.PlansSkipped != wantSkipped {
				t.Errorf("PlansSkipped = %d, want %d", o.PlansSkipped, wantSkipped)
			}
			if mid := s.Stats(); mid.PlanCacheMisses != before.PlanCacheMisses {
				t.Errorf("the update compiled: misses %d -> %d", before.PlanCacheMisses, mid.PlanCacheMisses)
			}
			res, _, err := s.Query(ctx, "d", core.LangXPath, q)
			if err != nil || len(res.Nodes) != 2 {
				t.Fatalf("post-update query: %d nodes, %v; want 2", len(res.Nodes), err)
			}
			after := s.Stats()
			if after.PlanCacheMisses != before.PlanCacheMisses || after.PlanCacheHits != before.PlanCacheHits+1 {
				t.Errorf("post-update query: misses %d -> %d, hits %d -> %d; want a hit",
					before.PlanCacheMisses, after.PlanCacheMisses, before.PlanCacheHits, after.PlanCacheHits)
			}
			if _, ok := s.UpdatePhaseTotals()["reprepare"]; ok {
				t.Error("UpdatePhaseTotals still reports a reprepare phase")
			}
		})
	}
}

// TestUpdateReprepareDatalog covers the compile-heavy route: the one compiled
// program carried across the update answers over the new document without a
// second compile.
func TestUpdateReprepareDatalog(t *testing.T) {
	s := New()
	if err := s.AddXML("d", keywordXML(3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const prog = "P(x) :- Lab[keyword](x).\n?- P."
	res, _, err := s.Query(ctx, "d", core.LangDatalog, prog)
	if err != nil || len(res.Nodes) != 3 {
		t.Fatalf("v1 datalog: %d nodes, %v; want 3", len(res.Nodes), err)
	}
	if _, err := s.UpdateDocXML("d", keywordXML(6)); err != nil {
		t.Fatal(err)
	}
	res, _, err = s.Query(ctx, "d", core.LangDatalog, prog)
	if err != nil || len(res.Nodes) != 6 {
		t.Fatalf("v2 datalog: %d nodes, %v; want 6 (new document)", len(res.Nodes), err)
	}
	if st := s.Stats(); st.PlanReprepares != 1 || st.PlanCacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 carried plan and 1 miss", st)
	}
}

func TestUpdateUnknownDocument(t *testing.T) {
	s := New()
	if _, err := s.UpdateDocXML("ghost", keywordXML(1)); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("update of unknown doc: %v, want ErrUnknownDocument", err)
	}
	if _, _, err := s.EngineVersion("ghost"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("version of unknown doc: %v, want ErrUnknownDocument", err)
	}
}

func TestRemoveAddRestartsVersion(t *testing.T) {
	s := New()
	if err := s.AddXML("d", keywordXML(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.UpdateDocXML("d", keywordXML(i+2)); err != nil {
			t.Fatal(err)
		}
	}
	if _, v, _ := s.EngineVersion("d"); v != 4 {
		t.Fatalf("version after 3 updates = %d, want 4", v)
	}
	if !s.Remove("d") {
		t.Fatal("remove failed")
	}
	if err := s.AddXML("d", keywordXML(1)); err != nil {
		t.Fatal(err)
	}
	if _, v, _ := s.EngineVersion("d"); v != 1 {
		t.Fatalf("version after remove+add = %d, want 1 (per-incarnation)", v)
	}
}

// TestUpdateUnderLoad hammers the query paths while UpdateDoc swaps a document,
// with -race watching for torn state.  Invariants checked:
//
//   - every query observes a result count consistent with some published
//     revision (no torn reads: version N always answers with N's content);
//   - versions are monotonically non-decreasing;
//   - cached plans keep working across every swap (no query errors).
//
// The "hot" document grows by one keyword per update (a single-splice insert,
// so most of its swaps take the patch path) and the "patchy" document
// alternates one label per update (a shape-preserving relabel, so readers
// also cross label-skip swaps).
func TestUpdateUnderLoad(t *testing.T) {
	s := New()
	// Revision v has v+1 keywords, so a //keyword count identifies the
	// revision and must equal DocResult.Version+1 exactly.
	revision := func(v int) string { return keywordXML(v + 1) }
	if err := s.AddXML("hot", revision(1)); err != nil { // version 1 -> 2 keywords
		t.Fatal(err)
	}
	if err := s.AddXML("cold", keywordXML(4)); err != nil {
		t.Fatal(err)
	}
	// Version v carries mark{v%2}: a one-node relabel per update, always
	// shape-preserving and disjoint from the readers' name/keyword queries.
	patchyRev := func(v int) *tree.Tree {
		return tree.MustParseSexpr(fmt.Sprintf("site(item(name keyword) item(mark%d))", v%2))
	}
	if err := s.Add("patchy", patchyRev(1)); err != nil {
		t.Fatal(err)
	}

	const (
		updates = 50
		readers = 4
	)
	ctx := context.Background()
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		maxSeen atomic.Uint64
	)
	queries := []struct{ lang, text string }{
		{core.LangXPath, "//keyword"},
		{core.LangDatalog, "P(x) :- Lab[keyword](x).\n?- P."},
		{core.LangStream, "//item//keyword"},
		{core.LangXPath, "//name"},
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := queries[(r+i)%len(queries)]
				for _, dr := range s.QueryCorpus(ctx, q.lang, q.text) {
					if dr.Err != nil {
						t.Errorf("%s: query failed mid-swap: %v", dr.Doc, dr.Err)
						return
					}
					switch dr.Doc {
					case "hot":
						// No torn reads: the content must match the version
						// the fan-out reports it executed against (every
						// revision has one name; revision v has v+1 keywords).
						want := int(dr.Version) + 1
						if q.text == "//name" {
							want = 1
						}
						if len(dr.Result.Nodes) != want {
							t.Errorf("hot v%d answered %d nodes to %q, want %d", dr.Version, len(dr.Result.Nodes), q.text, want)
							return
						}
						// Monotonicity (best-effort across goroutines: the
						// shared high-water mark must never move backwards
						// from this reader's own observation).
						for {
							seen := maxSeen.Load()
							if dr.Version <= seen || maxSeen.CompareAndSwap(seen, dr.Version) {
								break
							}
						}
					case "cold":
						want := 4 // keywords
						if q.text == "//name" {
							want = 1
						}
						if len(dr.Result.Nodes) != want || dr.Version != 1 {
							t.Errorf("cold doc disturbed: v%d, %d nodes to %q", dr.Version, len(dr.Result.Nodes), q.text)
							return
						}
					case "patchy":
						// Every revision has exactly one keyword and one name;
						// a patched swap must never tear either count.
						if q.text != "//name" && len(dr.Result.Nodes) != 1 {
							t.Errorf("patchy v%d answered %d nodes to %s %q, want 1",
								dr.Version, len(dr.Result.Nodes), q.lang, q.text)
							return
						}
					}
				}
			}
		}(r)
	}

	for v := 2; v <= updates+1; v++ {
		doc, err := xmldoc.Parse(revision(v))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.UpdateDoc("hot", doc)
		if err != nil {
			t.Fatalf("update to v%d: %v", v, err)
		}
		if got.Version != uint64(v) {
			t.Fatalf("update returned version %d, want %d", got.Version, v)
		}
		// A one-node relabel: readers cross a shape-preserving patch swap.
		if o, err := s.UpdateDoc("patchy", patchyRev(v)); err != nil {
			t.Fatalf("patchy update to v%d: %v", v, err)
		} else if !o.Patched || o.Kind != "relabel" {
			t.Fatalf("patchy update to v%d was %s/%s, want patched relabel", v, o.Mode(), o.Kind)
		}
		if v%10 == 0 {
			time.Sleep(time.Millisecond) // let readers overlap swaps
		}
	}
	stop.Store(true)
	wg.Wait()

	if hi := maxSeen.Load(); hi > uint64(updates+1) {
		t.Errorf("observed version %d beyond last published %d", hi, updates+1)
	}
	st := s.Stats()
	if st.Updates != 2*updates {
		t.Errorf("Updates = %d, want %d (hot + patchy)", st.Updates, 2*updates)
	}
	if st.PlanReprepares == 0 {
		t.Error("no cached plan was carried across an update under load")
	}
	// Every patchy swap was a verified patch; readers crossed them all.
	if st.PatchedUpdates < updates {
		t.Errorf("PatchedUpdates = %d, want >= %d", st.PatchedUpdates, updates)
	}
	// The final state must be the last revision, answered by a warm plan.
	res, _, err := s.Query(ctx, "hot", core.LangXPath, "//keyword")
	if err != nil || len(res.Nodes) != updates+2 {
		t.Fatalf("final state: %d keywords, %v; want %d", len(res.Nodes), err, updates+2)
	}

	// Deterministic label-skip coda: warm a plan whose label set is disjoint
	// from the relabel's touched labels, swap once more, and the outcome must
	// count it as skipped.
	if _, _, err := s.Query(ctx, "patchy", core.LangDatalog, "P(x) :- Lab[keyword](x).\n?- P."); err != nil {
		t.Fatal(err)
	}
	skipsBefore := s.Stats().PlansSkippedByLabelSet
	o, err := s.UpdateDoc("patchy", patchyRev(updates+2))
	if err != nil {
		t.Fatal(err)
	}
	if !o.Patched || o.PlansSkipped == 0 {
		t.Fatalf("final patchy update outcome = %+v, want a patched swap with a label-skipped plan", o)
	}
	if after := s.Stats().PlansSkippedByLabelSet; after <= skipsBefore {
		t.Errorf("PlansSkippedByLabelSet %d -> %d, want an increase", skipsBefore, after)
	}
	res, _, err = s.Query(ctx, "patchy", core.LangDatalog, "P(x) :- Lab[keyword](x).\n?- P.")
	if err != nil || len(res.Nodes) != 1 {
		t.Fatalf("label-skipped plan answered %d nodes, %v; want 1", len(res.Nodes), err)
	}
}

// TestUpdateConcurrentUpdaters runs racing Updates against one document and
// checks that every published version is unique and the count of bumps adds
// up — the shard-lock swap must serialize version assignment.
func TestUpdateConcurrentUpdaters(t *testing.T) {
	s := New()
	if err := s.AddXML("d", keywordXML(1)); err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 10
	)
	var wg sync.WaitGroup
	versions := make(chan uint64, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				doc, err := xmldoc.Parse(keywordXML(2 + (w+i)%3))
				if err != nil {
					t.Error(err)
					return
				}
				o, err := s.UpdateDoc("d", doc)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				versions <- o.Version
			}
		}(w)
	}
	wg.Wait()
	close(versions)
	seen := map[uint64]bool{}
	for v := range versions {
		if seen[v] {
			t.Fatalf("version %d published twice", v)
		}
		seen[v] = true
	}
	if _, v, _ := s.EngineVersion("d"); v != workers*rounds+1 {
		t.Errorf("final version = %d, want %d", v, workers*rounds+1)
	}
}

// TestUpdateRespectsClauseCap: the clause cap holds across an update.  The
// oversize plan stays out of the cache, and is denied admission again when it
// is compiled for the new revision, whose answers it returns.
func TestUpdateRespectsClauseCap(t *testing.T) {
	s := New(WithPlanClauseCap(3))
	if err := s.AddXML("d", keywordXML(2)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.Query(ctx, "d", core.LangXPath, "//keyword"); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Query(ctx, "d", core.LangCQ, cyclicKeywordPairs)
	if err != nil || len(res.Answers) != 1 {
		t.Fatalf("pre-update query: %d answers, %v; want 1", len(res.Answers), err)
	}
	if st := s.Stats(); st.PlanCacheSize != 1 || st.PlanCacheSkips != 1 {
		t.Fatalf("before the update: %+v, want the ordinary plan cached and the union skipped", st)
	}
	o, err := s.UpdateDocXML("d", keywordXML(50))
	if err != nil {
		t.Fatal(err)
	}
	if o.PlansCarried != 1 {
		t.Errorf("update carried %d plans, want only the cached one", o.PlansCarried)
	}
	// Queries still answer correctly, paying their own compile.
	res, _, err = s.Query(ctx, "d", core.LangCQ, cyclicKeywordPairs)
	if err != nil || len(res.Answers) != 50*49/2 {
		t.Fatalf("post-update query: %d answers, %v; want %d", len(res.Answers), err, 50*49/2)
	}
	st := s.Stats()
	if st.PlanCacheSkips != 2 {
		t.Errorf("oversize plan admitted after the update: %+v", st)
	}
	if st.PlanCacheSize != 1 {
		t.Errorf("cache size = %d after the update, want 1 (the ordinary plan)", st.PlanCacheSize)
	}
}

// multiKeywordXML is keywordXML with attributes, so items and keywords carry
// secondary "@..." labels and the document is multi-labeled.
func multiKeywordXML(n int) string {
	s := `<site><region name="africa"><item id="i0"><name>x</name><description>`
	for i := 0; i < n; i++ {
		s += "<keyword>k</keyword>"
	}
	return s + "</description></item></region></site>"
}

// viewOnly reports whether the aggregated index counters show label masks and
// no label list: what the XPath route leaves behind.
func viewOnly(ix index.Stats) bool {
	return ix.LabelMaskBuilds >= 1 && ix.LabelListBuilds == 0
}

// TestUpdateMultiLabelKeepsPairPathWarm: a multi-labeled corpus document is
// updated in place; the warm plan runs on the new engine's index and keeps
// answering label-to-label steps exactly — from label masks, which hold
// every label of a node, and the preorder-rank view.
func TestUpdateMultiLabelKeepsPairPathWarm(t *testing.T) {
	s := New()
	if err := s.AddXML("d", multiKeywordXML(2)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "//item[lab() = @id=i0]//keyword" // label-to-label step under an attribute label

	res, _, err := s.Query(ctx, "d", core.LangXPath, q)
	if err != nil || len(res.Nodes) != 2 {
		t.Fatalf("v1 query: %d nodes, %v; want 2", len(res.Nodes), err)
	}
	st := s.Stats()
	if st.MultiLabeledDocs != 1 {
		t.Fatalf("MultiLabeledDocs = %d, want 1", st.MultiLabeledDocs)
	}
	if !viewOnly(st.Index) {
		t.Fatalf("XPath on a multi-labeled doc must read masks and the view only: %+v", st.Index)
	}

	if _, err := s.UpdateDocXML("d", multiKeywordXML(5)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.PlanReprepares == 0 {
		t.Fatalf("warm plan was not carried across the swap: %+v", st)
	}
	// The swapped-out engine no longer contributes to the aggregate; the
	// carried plan reads the NEW engine's masks.
	res, _, err = s.Query(ctx, "d", core.LangXPath, q)
	if err != nil || len(res.Nodes) != 5 {
		t.Fatalf("v2 query: %d nodes, %v; want 5", len(res.Nodes), err)
	}
	after := s.Stats()
	if after.PlanCacheHits <= st.PlanCacheHits {
		t.Errorf("post-swap query should hit the carried plan: %+v -> %+v", st, after)
	}
	if !viewOnly(after.Index) {
		t.Errorf("carried plan must read the new index's masks and view only: %+v", after.Index)
	}
	if after.MultiLabeledDocs != 1 {
		t.Errorf("MultiLabeledDocs = %d after update, want 1", after.MultiLabeledDocs)
	}
}

// TestUpdateYannakakisAfterPatch: the forced Yannakakis baseline answers a
// multi-labeled document right before and after a patched update, reading
// the label lists of the patched index.
func TestUpdateYannakakisAfterPatch(t *testing.T) {
	s := New(WithEngineOptions(core.WithStrategy(baseline.Yannakakis)))
	if err := s.AddXML("d", multiKeywordXML(3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "Q(k) :- Lab[item](i), Lab[@id=i0](i), Child+(i, k), Lab[keyword](k)."
	query := func(want int) {
		t.Helper()
		res, _, err := s.Query(ctx, "d", core.LangCQ, q)
		if err != nil || len(res.Answers) != want {
			t.Fatalf("%d answers, %v; want %d", len(res.Answers), err, want)
		}
	}
	query(3)
	if st := s.Stats().Index; st.LabelListBuilds == 0 {
		t.Fatalf("yannakakis read no label list: %+v", st)
	}

	// One new leaf under the item: a shifting single-splice edit that touches
	// none of the query's labels, so their lists are carried.
	edited := strings.Replace(multiKeywordXML(3), "<name>x</name>", "<name>x</name><mailbox/>", 1)
	o, err := s.UpdateDocXML("d", edited)
	if err != nil || !o.Patched {
		t.Fatalf("update: %+v, %v; want a patched index", o, err)
	}
	query(3)
	if st := s.Stats().Index; st.LabelListBuilds != 0 || st.LabelListHits == 0 {
		t.Errorf("the patched index should serve the carried lists: %+v", st)
	}
}
