package service

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
)

// TestRowRendering: Object nests rows by section with integer values, and
// WriteText prints the named sections, each row in declaration order.
func TestRowRendering(t *testing.T) {
	rows := []Row{
		{"", "up", func(*Snapshot) int64 { return 7 }},
		{"x", "a", func(sn *Snapshot) int64 { return int64(sn.Queries) }},
		{"y", "b", func(sn *Snapshot) int64 { return int64(sn.Updates) }},
		{"x", "sum", func(sn *Snapshot) int64 { return int64(sn.Queries + sn.Updates) }},
	}
	sn := &Snapshot{Stats: Stats{Queries: 1, Updates: 2}}
	data, err := json.Marshal(Object(rows, sn))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"up":7,"x":{"a":1,"sum":3},"y":{"b":2}}`; string(data) != want {
		t.Errorf("Object = %s, want %s", data, want)
	}
	var b strings.Builder
	if err := WriteText(&b, rows, sn, "x", "z", "y"); err != nil {
		t.Fatal(err)
	}
	if want := "x: a=1 sum=3\ny: b=2\n"; b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}
}

// TestStatRowsAgreeWithFamilies: read from one snapshot, each scrape-time
// family the service declares carries its statusz row's value, and a nil
// registry collects the same rows.
func TestStatRowsAgreeWithFamilies(t *testing.T) {
	s := corpusService(t, 2)
	for _, q := range []struct{ lang, text string }{
		{core.LangXPath, "//item//keyword"},
		{core.LangSimilar, "k=2 description(keyword)"},
	} {
		for _, r := range s.QueryCorpus(context.Background(), q.lang, q.text) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	sn := s.Snapshot()
	reg := obsv.NewRegistry()
	rows := StatTable(reg, func() *Snapshot { return sn }).Rows
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := obsv.ParseExposition(b.String())
	if err != nil {
		t.Fatal(err)
	}
	status := Object(rows, sn)
	for _, c := range []struct{ family, sample, section, key string }{
		{"treeqd_corpus_docs", "treeqd_corpus_docs", "service", "docs"},
		{"treeqd_queries_total", "treeqd_queries_total", "service", "queries"},
		{"treeqd_plan_cache_misses_total", "treeqd_plan_cache_misses_total", "service", "plan_cache_misses"},
		{"treeqd_similar_candidates_total", "treeqd_similar_candidates_total", "similar", "candidates"},
		{"treeqd_similar_pruned_total", `treeqd_similar_pruned_total{bound="size"}`, "similar", "size_pruned"},
		{"treeqd_pool_hits_total", `treeqd_pool_hits_total{pool="bitset"}`, "pools", "bitset_pool_hits"},
		{"treeqd_pool_misses_total", `treeqd_pool_misses_total{pool="ted_dp"}`, "pools", "ted_dp_misses"},
		{"treeqd_update_patch_total", `treeqd_update_patch_total{mode="patched"}`, "updates", "patched"},
	} {
		f := fams[c.family]
		if f == nil {
			t.Errorf("family %s not registered", c.family)
			continue
		}
		row := status[c.section].(map[string]any)[c.key].(int64)
		if got, ok := f.Samples[c.sample]; !ok || got != float64(row) {
			t.Errorf("%s = %v (present %v), statusz %s.%s = %d", c.sample, got, ok, c.section, c.key, row)
		}
	}
	if n := status["service"].(map[string]any)["queries"].(int64); n != 4 {
		t.Errorf("service.queries = %d, want 4 (two fan-outs over two documents)", n)
	}
	collected := StatTable(nil, nil).Rows
	if len(collected) != len(rows) {
		t.Fatalf("nil registry collected %d rows, want %d", len(collected), len(rows))
	}
	for i := range rows {
		if collected[i].Section != rows[i].Section || collected[i].Key != rows[i].Key {
			t.Errorf("row %d: nil registry %s.%s, registry %s.%s", i, collected[i].Section, collected[i].Key, rows[i].Section, rows[i].Key)
		}
	}
}
