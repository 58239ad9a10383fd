package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/tree"
	"repro/internal/workload"
)

// TestPreparedStreamMatchesTreeXPath is the stream/tree equivalence check:
// for every streamable query, the prepared LangStream route must select
// exactly the nodes the tree-based XPath evaluator selects.
func TestPreparedStreamMatchesTreeXPath(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 40, Regions: 4, DescriptionDepth: 3, Seed: 31})
	e := New(doc)
	ctx := context.Background()
	queries := []string{
		"//item",
		"//item//keyword",
		"/site/regions",
		"//regions/*/item/name",
		"//description//*",
	}
	for _, q := range queries {
		pq, err := e.Prepare(LangStream, q)
		if err != nil {
			t.Fatalf("%s: prepare: %v", q, err)
		}
		if pq.Language() != LangStream || pq.Text() != q {
			t.Errorf("%s: prepared metadata = (%s, %s)", q, pq.Language(), pq.Text())
		}
		res, plan, err := pq.Exec(ctx)
		if err != nil {
			t.Fatalf("%s: exec: %v", q, err)
		}
		want, _, err := e.XPath(q)
		if err != nil {
			t.Fatalf("%s: tree xpath: %v", q, err)
		}
		if !reflect.DeepEqual(res.Nodes, []tree.NodeID(want)) {
			t.Errorf("%s: stream %v, tree %v", q, res.Nodes, want)
		}
		if plan.Language != "stream" {
			t.Errorf("%s: plan language %q", q, plan.Language)
		}
		if plan.ExecDuration <= 0 || plan.PrepareDuration <= 0 {
			t.Errorf("%s: plan missing timings: prepare=%v exec=%v", q, plan.PrepareDuration, plan.ExecDuration)
		}
	}
}

// TestPreparedStreamRejectsUnstreamable: out-of-fragment queries must fail at
// prepare time, not at execution.
func TestPreparedStreamRejectsUnstreamable(t *testing.T) {
	e := New(workload.SiteDocument(workload.DocSpec{Items: 5, Regions: 2, DescriptionDepth: 1, Seed: 32}))
	for _, q := range []string{"//item[name]", "//a | //b", "//item/parent::*"} {
		if _, err := e.Prepare(LangStream, q); !errors.Is(err, stream.ErrUnsupported) {
			t.Errorf("%s: prepare error = %v, want ErrUnsupported", q, err)
		}
	}
}

// TestPreparedStreamConcurrentExec runs one compiled stream plan from many
// goroutines (meaningful under -race): a run keeps all its state to itself.
func TestPreparedStreamConcurrentExec(t *testing.T) {
	doc := workload.SiteDocument(workload.DocSpec{Items: 30, Regions: 3, DescriptionDepth: 2, Seed: 33})
	e := New(doc)
	pq, err := e.Prepare(LangStream, "//item//keyword")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, _, err := pq.Exec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, _, err := pq.Exec(ctx)
				if err != nil {
					t.Errorf("exec: %v", err)
					return
				}
				if !reflect.DeepEqual(res.Nodes, ref.Nodes) {
					t.Errorf("concurrent exec diverged: %v vs %v", res.Nodes, ref.Nodes)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := pq.Stats(); st.Execs != 1+8*25 {
		t.Errorf("Execs = %d, want %d", st.Execs, 1+8*25)
	}
}
