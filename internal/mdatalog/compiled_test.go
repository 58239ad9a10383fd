package mdatalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/race"
	"repro/internal/tree"
	"repro/internal/workload"
)

// relabeled rebuilds the shape of a workload.RandomTree document — whose
// nodes hang off uniformly random earlier nodes, out of document order —
// with 0 to 2 labels per node.
func relabeled(nodes int, seed int64) *tree.Tree {
	shape := workload.RandomTree(workload.TreeSpec{Nodes: nodes, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	labels := func() []string {
		ls := []string{}
		for _, l := range []string{"a", "b", "c"} {
			if len(ls) < 2 && rng.Intn(3) == 0 {
				ls = append(ls, l)
			}
		}
		return ls
	}
	b := tree.NewBuilder()
	b.AddRoot(labels()...)
	for v := 1; v < shape.Len(); v++ {
		b.AddChild(shape.Parent(tree.NodeID(v)), labels()...)
	}
	return b.MustBuild()
}

// randomProgram draws a program of 1 to 4 intensional predicates whose rule
// bodies are trees of up to three variables: every binary tau+ predicate in
// both spellings and both directions, every unary one, and intensional
// literals anywhere, so recursion through any hop occurs.
func randomProgram(rng *rand.Rand) string {
	binaries := []string{
		"FirstChild", "NextSibling", "Child",
		"FirstChild^-1", "NextSibling^-1", "Child^-1",
		"FirstChildOf", "PrevSibling", "Parent",
	}
	unaries := []string{"Lab[a]", "Lab[b]", "Lab[c]", "Root", "Leaf", "FirstSibling", "LastSibling"}
	k := 1 + rng.Intn(4)
	var sb strings.Builder
	for r, rules := 0, k+rng.Intn(5); r < rules; r++ {
		head := r % k
		if r >= k {
			head = rng.Intn(k)
		}
		vars := 1 + rng.Intn(3)
		var body []string
		for v := 1; v < vars; v++ {
			from, to := fmt.Sprintf("x%d", rng.Intn(v)), fmt.Sprintf("x%d", v)
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			body = append(body, fmt.Sprintf("%s(%s, %s)", binaries[rng.Intn(len(binaries))], from, to))
		}
		for v := 0; v < vars; v++ {
			atoms := rng.Intn(3)
			if vars == 1 && atoms == 0 {
				atoms = 1 // the head variable must occur in the body
			}
			for a := 0; a < atoms; a++ {
				pred := unaries[rng.Intn(len(unaries))]
				if rng.Intn(3) == 0 {
					pred = fmt.Sprintf("P%d", rng.Intn(k))
				}
				body = append(body, fmt.Sprintf("%s(x%d)", pred, v))
			}
		}
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		fmt.Fprintf(&sb, "P%d(x0) :- %s.\n", head, strings.Join(body, ", "))
	}
	fmt.Fprintf(&sb, "?- P%d.\n", rng.Intn(k))
	return sb.String()
}

// asking returns c with another surviving predicate as its query.
func (c *Compiled) asking(pred int32) *Compiled {
	return &Compiled{preds: c.preds, query: pred, exts: c.exts, rules: c.rules, comps: c.comps, occ: c.occ}
}

// checkAgainstOracles requires, for the query predicate and for every
// intensional predicate of the TMNF program that survives copy elimination:
// the compiled solve, with a label index
// and without, equals the grounded Horn-SAT solve; and for the predicates
// the source program wrote itself, both equal the naive fixpoint.
func checkAgainstOracles(t *testing.T, name, text string, tr *tree.Tree) *Compiled {
	t.Helper()
	ctx := context.Background()
	p, err := Parse(text)
	if err != nil {
		t.Fatalf("%s: Parse: %v\n%s", name, err, text)
	}
	tm, err := p.ToTMNF()
	if err != nil {
		t.Fatalf("%s: ToTMNF: %v\n%s", name, err, text)
	}
	c, err := tm.Compile()
	if err != nil {
		t.Fatalf("%s: Compile: %v\n%s", name, err, text)
	}
	g, err := tm.Ground(tr)
	if err != nil {
		t.Fatalf("%s: Ground: %v", name, err)
	}
	model := g.Horn.Solve()
	ix := index.New(tr)

	for _, masks := range []LabelMasks{nil, ix} {
		got, err := c.SolveCtx(ctx, tr, masks)
		if err != nil {
			t.Fatalf("%s: SolveCtx: %v", name, err)
		}
		if want := g.NodesOf(tm.Query, model); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (index %v): query %s: compiled %v, grounded %v\n%s\non %s", name, masks != nil, tm.Query, got, want, text, tr)
		}
	}
	source := map[string]bool{}
	for _, pred := range p.IntensionalPredicates() {
		source[pred] = true
	}
	for i, pred := range c.preds {
		want := g.NodesOf(pred, model)
		for _, masks := range []LabelMasks{nil, ix} {
			got, err := c.asking(int32(i)).SolveCtx(ctx, tr, masks)
			if err != nil {
				t.Fatalf("%s: SolveCtx asking %s: %v", name, pred, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (index %v): predicate %s: compiled %v, grounded %v\n%s\non %s", name, masks != nil, pred, got, want, text, tr)
			}
		}
		if !source[pred] {
			continue
		}
		naive, err := EvaluateNaive(&Program{Rules: p.Rules, Query: pred}, tr)
		if err != nil {
			t.Fatalf("%s: EvaluateNaive(%s): %v", name, pred, err)
		}
		if len(naive) != len(want) || len(want) > 0 && !reflect.DeepEqual(naive, want) {
			t.Fatalf("%s: predicate %s: naive %v, grounded %v\n%s\non %s", name, pred, naive, want, text, tr)
		}
	}
	return c
}

func TestCompiledDifferentialRandom(t *testing.T) {
	derivable := 0
	var kinds [len(scheduleNames)]int // programs with a component of each schedule
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := randomProgram(rng)
		tr := relabeled(2+rng.Intn(24), seed)
		c := checkAgainstOracles(t, fmt.Sprintf("seed %d", seed), text, tr)
		if seed%10 == 0 {
			// A few hundred nodes: steps and sweeps cross word boundaries.
			checkAgainstOracles(t, fmt.Sprintf("seed %d, large tree", seed), text, relabeled(130+rng.Intn(200), seed))
		}
		if c.Derived() > 0 {
			derivable++
		}
		var has [len(scheduleNames)]bool
		for _, k := range c.comps {
			has[k.kind] = true
		}
		for kind, ok := range has {
			if ok {
				kinds[kind]++
			}
		}
	}
	if derivable < 150 {
		t.Errorf("only %d of 300 random programs derived anything: the generator is not exercising the solver", derivable)
	}
	for kind, programs := range kinds {
		if programs < 20 {
			t.Errorf("only %d of 300 random programs have a component scheduled as %s, want at least 20", programs, schedule(kind))
		}
	}
}

// handTree is the document of the hand cases.
const handTree = "r(a(b c(a) b) b(a(b) c) a)"

// handCases cover what copy elimination can get wrong and every schedule,
// each with the rule and predicate counts it must arrive at, the schedules
// of its components in evaluation order, and the atoms one solve on
// handTree derives.
var handCases = []struct {
	name, text   string
	rules, preds int
	schedules    string
	derived      int64
}{
	{"ancestor program: 10 TMNF rules over 8 predicates", example31Lab("a"), 4, 2, "backward sweep", 12},
	{"query predicate is an alias", "A(x) :- Lab[a](x).\nA(x) :- A(y), Child(y, x).\nQ(x) :- A(x).\n?- Q.", 2, 1, "forward sweep", 8},
	{"alias chain of length 3", "A(x) :- Lab[a](x).\nA(x) :- A(y), NextSibling(y, x).\nB(x) :- A(x).\nC(x) :- B(x).\nD(x) :- C(x).\nE(x) :- D(x), Leaf(x).\n?- E.", 3, 2, "forward sweep, image step", 9},
	{"mutual copies read by another predicate", "A(x) :- B(x).\nB(x) :- A(x).\nC(x) :- Lab[a](x).\nC(x) :- A(x).\n?- C.", 1, 1, "image step", 4},
	{"mutual copies as the query", "A(x) :- B(x).\nB(x) :- A(x).\n?- A.", 0, 1, "image step", 0},
	{"self copy", "A(x) :- A(x).\nA(x) :- Lab[b](x).\n?- A.", 1, 1, "image step", 4},
	{"copy rule and another rule", "B(x) :- Lab[b](x).\nA(x) :- B(x).\nA(x) :- Lab[a](x).\nC(x) :- A(y), Parent(y, x).\nC(x) :- B(y), FirstChild(y, x).\n?- C.", 5, 3, "image step, image step, image step", 17},
	{"forwarding into a head with its own rules", "B(x) :- Lab[b](y), Child(y, x).\nB(x) :- Leaf(x), Lab[c](x).\nA(x) :- B(x).\nA(x) :- Root(x).\n?- A.", 3, 1, "image step", 3},
	{"forwarded predicate is recursive", "B(x) :- Lab[b](x).\nB(x) :- B(y), PrevSibling(y, x).\nA(x) :- B(x).\nA(x) :- Root(x).\n?- A.", 4, 2, "backward sweep, image step", 13},
	{"both literals intensional, first derived first", "A(x) :- Lab[a](x).\nB(x) :- A(y), Child(y, x).\nC(x) :- A(x), B(x).\n?- C.", 3, 3, "image step, image step, image step", 8},
	{"both literals intensional, second derived first", "A(x) :- B(y), Parent(y, x).\nB(x) :- Lab[a](x).\nC(x) :- A(x), B(x).\n?- C.", 3, 3, "image step, image step, image step", 7},
	{"the same literal twice", "A(x) :- Lab[a](x).\nC(x) :- A(x), A(x).\n?- C.", 1, 1, "image step", 4},
	{"all-extensional two-literal seed", "A(x) :- Lab[b](x), Leaf(x).\nB(x) :- A(y), FirstChildOf(y, x).\n?- B.", 2, 2, "image step, image step", 5},
	{"all-extensional seed across a hop", "A(x) :- Lab[c](y), Child(y, x).\n?- A.", 1, 1, "image step", 1},
	{"no derivable atom", "A(x) :- Lab[zzz](x).\nB(x) :- A(y), Child(y, x).\nB(x) :- B(y), NextSibling(y, x).\n?- B.", 3, 2, "image step, forward sweep", 0},
	{"unconstrained variable", "A(x) :- Child(x, y).\n?- A.", 4, 2, "forward sweep, image step", 16},
	{"fact", "A(x).\nB(x) :- A(x), Leaf(x).\n?- B.", 4, 2, "forward sweep, image step", 17},
	{"siblings both ways", "A(x) :- Lab[c](x).\nA(x) :- A(y), NextSibling(y, x).\nA(x) :- A(y), PrevSibling(y, x).\n?- A.", 3, 1, "queue", 5},
	{"a cycle through two predicates, up and down", "A(x) :- Lab[b](x), Leaf(x).\nB(x) :- A(y), Parent(y, x).\nA(x) :- B(y), FirstChild(y, x).\n?- A.", 3, 2, "queue", 5},
}

func TestCompiledHandCases(t *testing.T) {
	tr := tree.MustParseSexpr(handTree)
	large := relabeled(300, 1) // several words of 64 ranks
	for _, tc := range handCases {
		checkAgainstOracles(t, tc.name+", large tree", tc.text, large)
		c := checkAgainstOracles(t, tc.name, tc.text, tr)
		if c.NumRules() != tc.rules || c.NumPredicates() != tc.preds {
			t.Errorf("%s: compiled to %d rules over %d predicates, want %d over %d", tc.name, c.NumRules(), c.NumPredicates(), tc.rules, tc.preds)
		}
		if got := strings.Join(c.Schedules(), ", "); got != tc.schedules {
			t.Errorf("%s: schedules %q, want %q", tc.name, got, tc.schedules)
		}
		c = compile(t, tc.text)
		if _, err := c.SolveCtx(context.Background(), tr, nil); err != nil {
			t.Fatal(err)
		}
		if c.Derived() != tc.derived {
			t.Errorf("%s: derived %d atoms, want %d", tc.name, c.Derived(), tc.derived)
		}
	}
}

// compile brings text into TMNF and compiles it.
func compile(t testing.TB, text string) *Compiled {
	t.Helper()
	tm, err := MustParse(text).ToTMNF()
	if err != nil {
		t.Fatal(err)
	}
	c, err := tm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// example31Lab is Example 3.1 written the way the benchmark does, over a
// given label: neither recursive rule is in TMNF as written.
func example31Lab(label string) string {
	return strings.ReplaceAll(example31, "Lab[L]", "Lab["+label+"]")
}

func TestCompileRequiresTMNF(t *testing.T) {
	p := MustParse("P(x) :- Child(x, y), Child(y, z), Lab[a](z).")
	if _, err := p.Compile(); err == nil {
		t.Fatal("Compile accepted a non-TMNF program")
	}
}

// countingCtx is a context whose Err starts returning context.Canceled from
// the failAfter-th call onward, counting every call (see hornsat's
// cancel_test.go): each call is one checkpoint.
type countingCtx struct {
	context.Context
	calls     int
	failAfter int // 0 = never fail
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.failAfter > 0 && c.calls >= c.failAfter {
		return context.Canceled
	}
	return nil
}

// pathTree is a path of n nodes labeled a.
func pathTree(n int) *tree.Tree {
	b := tree.NewBuilder()
	v := b.AddRoot("a")
	for i := 1; i < n; i++ {
		v = b.AddChild(v, "a")
	}
	return b.MustBuild()
}

// scheduleCases are one program per schedule, each holding of every node of
// pathTree(n) or, for the image step, of all but the leaf.  work is how
// many nodes a solve steps or sweeps or atoms it pops, in multiples of n:
// the image step is one step over the nodes; the others step over them once
// and then sweep them or pop n atoms.
var scheduleCases = []struct {
	kind schedule
	text string
	work int
}{
	{scheduleImage, "P(x) :- Lab[a](y), Parent(y, x).\n?- P.", 1},
	{scheduleBackward, "P(x) :- Leaf(x).\nP(x) :- P(y), Parent(y, x).\n?- P.", 2},
	{scheduleForward, "P(x) :- Root(x).\nP(x) :- P(y), FirstChild(y, x).\nP(x) :- P(y), NextSibling(y, x).\n?- P.", 2},
	{scheduleQueue, "P(x) :- Root(x).\nP(x) :- P(y), FirstChild(y, x).\nP(x) :- P(y), Parent(y, x).\n?- P.", 2},
}

// TestCompiledCheckpointCadence: under every schedule a solve polls ctx at
// least once per CheckpointInterval nodes stepped or swept or atoms popped,
// and one that expires at its second poll stops there with context.Canceled,
// having derived at most one interval of atoms.
func TestCompiledCheckpointCadence(t *testing.T) {
	const n = 5000
	tr := pathTree(n)
	for _, tc := range scheduleCases {
		c := compile(t, tc.text)
		if last := c.comps[len(c.comps)-1].kind; last != tc.kind {
			t.Fatalf("%s: the query's component is scheduled as %s", tc.kind, last)
		}
		want := n
		if tc.kind == scheduleImage {
			want = n - 1
		}
		ctx := &countingCtx{Context: context.Background()}
		nodes, err := c.SolveCtx(ctx, tr, nil)
		if err != nil || len(nodes) != want {
			t.Fatalf("%s: SolveCtx = %d nodes, %v; want %d", tc.kind, len(nodes), err, want)
		}
		if least := 1 + tc.work*n/CheckpointInterval; ctx.calls < least {
			t.Errorf("%s: ctx.Err called %d times, want at least %d (entry + one per interval)", tc.kind, ctx.calls, least)
		}
		if c.Derived() != int64(want) {
			t.Errorf("%s: Derived() = %d, want %d", tc.kind, c.Derived(), want)
		}

		ctx = &countingCtx{Context: context.Background(), failAfter: 2}
		nodes, err = c.SolveCtx(ctx, tr, nil)
		if !errors.Is(err, context.Canceled) || nodes != nil {
			t.Fatalf("%s: cancelled SolveCtx = %v, %v; want nil, context.Canceled", tc.kind, nodes, err)
		}
		if ctx.calls != 2 {
			t.Errorf("%s: ctx.Err called %d times, want 2: the abort must land on the first in-loop checkpoint", tc.kind, ctx.calls)
		}
		if d := c.Derived() - int64(want); d > CheckpointInterval {
			t.Errorf("%s: the cancelled solve derived %d atoms, want at most one interval", tc.kind, d)
		}
	}

	c := compile(t, scheduleCases[2].text)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SolveCtx(done, tr, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired at entry: err = %v, want context.Canceled", err)
	}

	// The cancelled solve gave its scratch back, unbound: the next solve
	// finds it (sync.Pool may drop any one Put, so allow a few attempts) and
	// is right.
	returned := false
	for try := 0; try < 20 && !returned; try++ {
		c.SolveCtx(&countingCtx{Context: context.Background(), failAfter: 2}, tr, nil)
		s := solverPool.Get().(*solver)
		returned = cap(s.words) > 0 && s.c == nil && s.t == nil
		solverPool.Put(s)
	}
	if !returned {
		t.Error("a cancelled solve never returned its scratch to the pool")
	}
	if nodes, err := c.SolveCtx(context.Background(), tr, nil); err != nil || len(nodes) != n {
		t.Fatalf("solve after cancellation = %d nodes, %v; want %d", len(nodes), err, n)
	}
}

// TestCompiledSolveAllocs pins the warm solve's allocations under every
// schedule: with a label index, its scratch (vectors, queue, fired words)
// comes from the pool, so it allocates its answer slice and nothing else —
// nothing at all when the answer is empty.
func TestCompiledSolveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not stable under -race")
	}
	tr := relabeled(3000, 7)
	ix := index.New(tr)
	texts := []string{example31Lab("a"), "P(x) :- Lab[zzz](x).\nP(x) :- P(y), Child(y, x).\n?- P."}
	for _, tc := range scheduleCases {
		texts = append(texts, strings.ReplaceAll(tc.text, "Lab[a]", "Lab[b]"))
	}
	for _, text := range texts {
		c := compile(t, text)
		nodes, err := c.SolveCtx(context.Background(), tr, ix)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0
		if len(nodes) == 0 {
			want = 0
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.SolveCtx(context.Background(), tr, ix); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("%s (%s, %d answers): %.1f allocations per warm solve, want %.0f", strings.Join(c.Schedules(), ", "), strings.ReplaceAll(text, "\n", " "), len(nodes), allocs, want)
		}
	}
}

// TestCompiledConcurrentSolves: one Compiled serves any number of solves at
// once — they share the rules and the index's masks read-only and own their
// scratch (run under -race).
func TestCompiledConcurrentSolves(t *testing.T) {
	c := compile(t, example31Lab("a"))
	trees := []*tree.Tree{relabeled(300, 1), relabeled(2000, 2)}
	var want [2][]tree.NodeID
	var ixs [2]*index.Index
	for i, tr := range trees {
		ixs[i] = index.New(tr)
		var err error
		if want[i], err = c.SolveCtx(context.Background(), tr, nil); err != nil || len(want[i]) == 0 {
			t.Fatalf("tree %d: %d nodes, %v", i, len(want[i]), err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r) % 2
				got, err := c.SolveCtx(context.Background(), trees[i], ixs[i])
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d, tree %d: %d nodes, %v; want %d", g, i, len(got), err, len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
