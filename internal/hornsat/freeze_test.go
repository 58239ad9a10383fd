package hornsat

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestAddClauseAfterSolve checks the invalidation half of the freeze
// lifecycle: a clause added after a solve (which froze the index) is seen by
// the next solve, whether or not it grows the predicate universe.
func TestAddClauseAfterSolve(t *testing.T) {
	p := NewProgram()
	p.AddFact(0)
	p.AddClause(1, 0)
	if m := p.Solve(); m.Count() != 2 {
		t.Fatalf("derived %v, want [0 1]", m.Derived)
	}
	p.AddClause(2, 1, 0)
	if m := p.Solve(); !m.True(2) || m.Count() != 3 {
		t.Errorf("a rule added after a solve was not seen: derived %v", m.Derived)
	}
	p.AddFact(7)
	if m := p.Solve(); !m.True(7) || m.Count() != 4 {
		t.Errorf("a fact on a new predicate added after a solve was not seen: derived %v", m.Derived)
	}
	// Allocating a predicate no clause mentions keeps the index valid.
	fresh := p.NewPred("fresh")
	if m := p.Solve(); m.True(fresh) || m.Count() != 4 {
		t.Errorf("after NewPred: derived %v", m.Derived)
	}
	p.Freeze()
	p.AddClause(fresh, 7)
	if m := p.Solve(); !m.True(fresh) {
		t.Errorf("a rule added after Freeze was not seen: derived %v", m.Derived)
	}
}

// TestConcurrentSolves solves one program from many goroutines at once
// (meaningful under -race): once starting unfrozen, so that the first solves
// race to build the index, and once frozen up front as a grounded plan is.
func TestConcurrentSolves(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		p := randomProgram(rand.New(rand.NewSource(7)), 400, 1500, 3)
		for x := 0; x < 40; x++ {
			p.AddFact(Pred(x))
		}
		want := p.SolveNaive()
		if frozen {
			p.Freeze()
		}
		const workers = 8
		derived := make([][]Pred, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					m, err := p.SolveCtx(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					derived[g] = m.Derived
				}
			}()
		}
		wg.Wait()
		if len(derived[0]) != want.Count() || len(derived[0]) < 41 {
			t.Fatalf("frozen=%v: %d atoms derived, naive solver has %d", frozen, len(derived[0]), want.Count())
		}
		for g := range derived {
			if !slices.Equal(derived[g], derived[0]) {
				t.Errorf("frozen=%v: goroutine %d derived %v, goroutine 0 %v", frozen, g, derived[g], derived[0])
			}
		}
	}
}

// TestClausesRoundTrip checks that the flat clause store gives back exactly
// what was added, in order, through Clauses and String.
func TestClausesRoundTrip(t *testing.T) {
	added := []Clause{
		{Head: 3},
		{Head: 1, Body: []Pred{3}},
		{Head: 3}, // a duplicate fact
		{Head: 2, Body: []Pred{1, 3, 1}},
		{Head: 0, Body: []Pred{2, 2}},
		{Head: 4},
	}
	p := NewProgramWithPreds(5)
	p.Reserve(2, 1) // less than what follows: the store must still grow
	size := 0
	for _, c := range added {
		p.AddClause(c.Head, c.Body...)
		size += 1 + len(c.Body)
	}
	const text = "p3.\np1 <- p3.\np3.\np2 <- p1, p3, p1.\np0 <- p2, p2.\np4.\n"
	got := p.Clauses()
	if len(got) != len(added) || p.NumClauses() != len(added) || p.Size() != size {
		t.Fatalf("%d clauses (NumClauses %d, Size %d), want %d of size %d", len(got), p.NumClauses(), p.Size(), len(added), size)
	}
	for i, c := range added {
		if got[i].Head != c.Head || !slices.Equal(got[i].Body, c.Body) {
			t.Errorf("clause %d = %v, want %v", i, got[i], c)
		}
	}
	if p.String() != text {
		t.Errorf("String = %q, want %q", p.String(), text)
	}
	if m := p.Solve(); m.Count() != 5 {
		t.Errorf("derived %v, want all five predicates", m.Derived)
	}
}
