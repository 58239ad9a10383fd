package hornsat

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// example33 builds the relabeled ground program of Example 3.3:
//
//	r1: 1<-   r2: 2<-   r3: 3<-
//	r4: 4<-1  r5: 5<-3,4  r6: 6<-2,5
func example33() *Program {
	p := NewProgram()
	for i := 0; i < 7; i++ {
		p.NewPred("")
	}
	p.AddFact(1)
	p.AddFact(2)
	p.AddFact(3)
	p.AddClause(4, 1)
	p.AddClause(5, 3, 4)
	p.AddClause(6, 2, 5)
	return p
}

func TestExample33Model(t *testing.T) {
	p := example33()
	m := p.Solve()
	for _, x := range []Pred{1, 2, 3, 4, 5, 6} {
		if !m.True(x) {
			t.Errorf("predicate %d should be true", x)
		}
	}
	if m.True(0) {
		t.Errorf("predicate 0 should be false")
	}
	if m.Count() != 6 {
		t.Errorf("Count = %d, want 6", m.Count())
	}
	// Derivation order: facts 1,2,3 first (in clause order), then 4, 5, 6 --
	// exactly the propagation described in Example 3.3.
	want := []Pred{1, 2, 3, 4, 5, 6}
	if len(m.Derived) != len(want) {
		t.Fatalf("Derived = %v", m.Derived)
	}
	for i, x := range want {
		if m.Derived[i] != x {
			t.Errorf("Derived[%d] = %d, want %d", i, m.Derived[i], x)
		}
	}
}

func TestExample33InitTrace(t *testing.T) {
	p := example33()
	ts := p.InitTrace()
	// The paper's table: size = [0 0 0 1 2 2], head = [1 2 3 4 5 6],
	// rules[1]=[r4], rules[2]=[r6], rules[3]=[r5], rules[4]=[r5], rules[5]=[r6],
	// rules[6]=[], q=[1,2,3].
	wantSize := []int{0, 0, 0, 1, 2, 2}
	for i, w := range wantSize {
		if ts.Size[i] != w {
			t.Errorf("size[%d] = %d, want %d", i, ts.Size[i], w)
		}
	}
	wantHead := []Pred{1, 2, 3, 4, 5, 6}
	for i, w := range wantHead {
		if ts.Head[i] != w {
			t.Errorf("head[%d] = %d, want %d", i, ts.Head[i], w)
		}
	}
	wantRules := map[Pred][]int{1: {3}, 2: {5}, 3: {4}, 4: {4}, 5: {5}, 6: {}}
	for x, w := range wantRules {
		got := ts.Rules[x]
		if len(got) != len(w) {
			t.Errorf("rules[%d] = %v, want %v", x, got, w)
			continue
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("rules[%d] = %v, want %v", x, got, w)
			}
		}
	}
	if len(ts.Queue) != 3 || ts.Queue[0] != 1 || ts.Queue[1] != 2 || ts.Queue[2] != 3 {
		t.Errorf("queue = %v, want [1 2 3]", ts.Queue)
	}
}

func TestEmptyProgram(t *testing.T) {
	p := NewProgram()
	m := p.Solve()
	if m.Count() != 0 || len(m.Derived) != 0 {
		t.Errorf("empty program has nonempty model")
	}
	if p.Size() != 0 || p.NumClauses() != 0 {
		t.Errorf("empty program has nonzero size")
	}
}

func TestNoDerivationWithoutFacts(t *testing.T) {
	p := NewProgram()
	p.AddClause(0, 1)
	p.AddClause(1, 0)
	m := p.Solve()
	if m.True(0) || m.True(1) {
		t.Errorf("cyclic program without facts should derive nothing")
	}
}

func TestChainDerivation(t *testing.T) {
	p := NewProgram()
	const n = 1000
	p.AddFact(0)
	for i := 1; i < n; i++ {
		p.AddClause(Pred(i), Pred(i-1))
	}
	m := p.Solve()
	if m.Count() != n {
		t.Errorf("chain model size = %d, want %d", m.Count(), n)
	}
	for i := 0; i < n; i++ {
		if m.Derived[i] != Pred(i) {
			t.Fatalf("Derived[%d] = %d", i, m.Derived[i])
		}
	}
}

func TestDuplicateBodyAtoms(t *testing.T) {
	// A clause with a repeated body atom must still fire exactly when the atom
	// is derived (the counter counts occurrences, which is fine since the atom
	// is enqueued once and decrements each occurrence).
	p := NewProgram()
	p.AddFact(0)
	p.AddClause(1, 0, 0)
	m := p.Solve()
	if !m.True(1) {
		t.Errorf("clause with duplicate body atom did not fire")
	}
}

func TestSatisfiableWithGoals(t *testing.T) {
	p := example33()
	// Goal clause <- 6 is violated since 6 is derivable: unsatisfiable.
	if p.SatisfiableWithGoals([][]Pred{{6}}) {
		t.Errorf("formula with refuted goal should be unsatisfiable")
	}
	// Goal clause <- 0 is fine since 0 is not derivable.
	if !p.SatisfiableWithGoals([][]Pred{{0}}) {
		t.Errorf("formula with non-derivable goal should be satisfiable")
	}
	// Mixed: one satisfied goal suffices for unsatisfiability.
	if p.SatisfiableWithGoals([][]Pred{{0}, {4, 5}}) {
		t.Errorf("formula should be unsatisfiable because 4 and 5 are derivable")
	}
}

func TestNamesAndString(t *testing.T) {
	p := NewProgram()
	a := p.NewPred("A")
	b := p.NewPred("B")
	p.AddFact(a)
	p.AddClause(b, a)
	s := p.String()
	if !strings.Contains(s, "A.") || !strings.Contains(s, "B <- A.") {
		t.Errorf("String = %q", s)
	}
	if p.PredName(a) != "A" {
		t.Errorf("PredName(a) = %q", p.PredName(a))
	}
	anon := p.NewPred("")
	if p.PredName(anon) != "p2" {
		t.Errorf("PredName(anon) = %q", p.PredName(anon))
	}
	c := Clause{Head: 3, Body: []Pred{1, 2}}
	if c.String() != "3 <- 1, 2." {
		t.Errorf("Clause.String = %q", c.String())
	}
	f := Clause{Head: 3}
	if f.String() != "3." {
		t.Errorf("fact Clause.String = %q", f.String())
	}
}

func TestNegativePredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("negative predicate id should panic")
		}
	}()
	p := NewProgram()
	p.AddClause(-1)
}

func TestTrueSet(t *testing.T) {
	p := example33()
	m := p.Solve()
	ts := m.TrueSet()
	if len(ts) != 6 || ts[0] != 1 || ts[5] != 6 {
		t.Errorf("TrueSet = %v", ts)
	}
}

// randomProgram builds a random definite Horn program; now and then it adds
// the same clause twice (duplicate facts among them) or a body that repeats
// one atom.
func randomProgram(rng *rand.Rand, nPreds, nClauses, maxBody int) *Program {
	p := NewProgramWithPreds(nPreds)
	for i := 0; i < nClauses; i++ {
		head := Pred(rng.Intn(nPreds))
		k := rng.Intn(maxBody + 1)
		body := make([]Pred, k)
		for j := range body {
			body[j] = Pred(rng.Intn(nPreds))
		}
		if k > 1 && rng.Intn(4) == 0 {
			body[k-1] = body[0]
		}
		p.AddClause(head, body...)
		if rng.Intn(4) == 0 {
			p.AddClause(head, body...)
		}
	}
	return p
}

// TestSolveMatchesNaive cross-checks Minoux' algorithm against the naive
// fixpoint solver on random programs, and a second solve — which runs on the
// index the first one froze — against the first.
func TestSolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := randomProgram(rng, 2+rng.Intn(30), rng.Intn(60), 3)
		if i%2 == 0 {
			p.Freeze()
		}
		fast := p.Solve()
		slow := p.SolveNaive()
		for x := 0; x < p.NumPreds(); x++ {
			if fast.True(Pred(x)) != slow.True(Pred(x)) {
				t.Fatalf("program %d: predicate %d: Solve=%v SolveNaive=%v\n%s",
					i, x, fast.True(Pred(x)), slow.True(Pred(x)), p)
			}
		}
		if len(fast.Derived) != fast.Count() {
			t.Fatalf("program %d: %d atoms derived, %d true\n%s", i, len(fast.Derived), fast.Count(), p)
		}
		if again := p.Solve(); !slices.Equal(again.Derived, fast.Derived) {
			t.Fatalf("program %d: second solve derived %v, first %v\n%s", i, again.Derived, fast.Derived, p)
		}
	}
}

// TestQuickMinimalModel property-checks two facts about the minimal model:
// it is a model (every clause with a true body has a true head), and it is
// supported (every true atom is the head of a clause whose body is true).
func TestQuickMinimalModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng, 2+rng.Intn(20), rng.Intn(40), 3)
		m := p.Solve()
		// Model property.
		for _, c := range p.Clauses() {
			all := true
			for _, b := range c.Body {
				if !m.True(b) {
					all = false
					break
				}
			}
			if all && !m.True(c.Head) {
				return false
			}
		}
		// Supportedness.
		for _, x := range m.TrueSet() {
			supported := false
			for _, c := range p.Clauses() {
				if c.Head != x {
					continue
				}
				all := true
				for _, b := range c.Body {
					if !m.True(b) {
						all = false
						break
					}
				}
				if all {
					supported = true
					break
				}
			}
			if !supported {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSizeAccounting(t *testing.T) {
	p := NewProgram()
	p.AddFact(0)
	p.AddClause(1, 0)
	p.AddClause(2, 0, 1)
	if p.Size() != 1+2+3 {
		t.Errorf("Size = %d, want 6", p.Size())
	}
	if p.NumPreds() != 3 {
		t.Errorf("NumPreds = %d, want 3", p.NumPreds())
	}
}
