package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveHolds computes a(x, y) directly from pointer walks; it is the
// reference oracle against which Holds (the pre/post-based definition) and
// Step are validated.
func naiveHolds(t *Tree, a Axis, x, y NodeID) bool {
	switch a {
	case Self:
		return x == y
	case Child:
		return t.Parent(y) == x
	case Parent:
		return t.Parent(x) == y
	case Descendant:
		return t.isDescendantByWalk(x, y)
	case Ancestor:
		return t.isDescendantByWalk(y, x)
	case DescendantOrSelf:
		return x == y || t.isDescendantByWalk(x, y)
	case AncestorOrSelf:
		return x == y || t.isDescendantByWalk(y, x)
	case NextSiblingAxis:
		return t.NextSibling(x) == y && y != InvalidNode
	case PrevSiblingAxis:
		return t.PrevSibling(x) == y && y != InvalidNode
	case FollowingSibling:
		for s := t.NextSibling(x); s != InvalidNode; s = t.NextSibling(s) {
			if s == y {
				return true
			}
		}
		return false
	case PrecedingSibling:
		for s := t.PrevSibling(x); s != InvalidNode; s = t.PrevSibling(s) {
			if s == y {
				return true
			}
		}
		return false
	case FollowingSiblingOrSelf:
		return x == y || naiveHolds(t, FollowingSibling, x, y)
	case PrecedingSiblingOrSelf:
		return x == y || naiveHolds(t, PrecedingSibling, x, y)
	case Following:
		// Definition from Section 2: exists x0, y0 with NextSibling+(x0,y0),
		// Child*(x0,x) ... wait, the definition is Child*(x0, x) where x0 is an
		// ancestor-or-self of x.  Equivalently: x wholly precedes y.
		for x0 := x; x0 != InvalidNode; x0 = t.Parent(x0) {
			for y0 := t.NextSibling(x0); y0 != InvalidNode; y0 = t.NextSibling(y0) {
				if y0 == y || t.isDescendantByWalk(y0, y) {
					return true
				}
			}
		}
		return false
	case Preceding:
		return naiveHolds(t, Following, y, x)
	}
	panic("unknown axis")
}

func TestHoldsAgainstNaive(t *testing.T) {
	trees := []*Tree{
		MustParseSexpr("a"),
		MustParseSexpr("a(b)"),
		MustParseSexpr("a(b c d)"),
		MustParseSexpr("a(b(a c) a(b d))"),
		MustParseSexpr("r(a(b(c(d))) e(f g) h)"),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		trees = append(trees, randomTree(rng, 1+rng.Intn(40), []string{"a", "b"}))
	}
	for ti, tr := range trees {
		for _, a := range AllAxes() {
			for _, x := range tr.Nodes() {
				for _, y := range tr.Nodes() {
					want := naiveHolds(tr, a, x, y)
					if got := tr.Holds(a, x, y); got != want {
						t.Fatalf("tree %d (%s): %v(%d,%d) = %v, want %v", ti, tr, a, x, y, got, want)
					}
				}
			}
		}
	}
}

func TestStepAgreesWithHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		tr := randomTree(rng, 1+rng.Intn(50), []string{"a", "b", "c"})
		for _, a := range AllAxes() {
			for _, x := range tr.Nodes() {
				got := tr.Step(a, x)
				// Step must return exactly {y : Holds(a,x,y)} ...
				set := map[NodeID]bool{}
				for _, y := range got {
					if !tr.Holds(a, x, y) {
						t.Fatalf("%v: Step(%d) returned %d but Holds is false", a, x, y)
					}
					if set[y] {
						t.Fatalf("%v: Step(%d) returned %d twice", a, x, y)
					}
					set[y] = true
				}
				want := 0
				for _, y := range tr.Nodes() {
					if tr.Holds(a, x, y) {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("%v: Step(%d) returned %d nodes, want %d", a, x, len(got), want)
				}
				// ... in document order.
				for j := 1; j < len(got); j++ {
					if tr.Pre(got[j-1]) >= tr.Pre(got[j]) {
						t.Fatalf("%v: Step(%d) not in document order: %v", a, x, got)
					}
				}
			}
		}
	}
}

func TestStepFuncEarlyStop(t *testing.T) {
	tr := MustParseSexpr("a(b c d e f)")
	count := 0
	tr.StepFunc(Child, tr.Root(), func(NodeID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("StepFunc visited %d nodes after early stop, want 2", count)
	}
}

func TestInverseAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTree(rng, 30, []string{"a", "b"})
	for _, a := range AllAxes() {
		inv := a.Inverse()
		if inv.Inverse() != a {
			t.Errorf("Inverse(Inverse(%v)) = %v", a, inv.Inverse())
		}
		for _, x := range tr.Nodes() {
			for _, y := range tr.Nodes() {
				if tr.Holds(a, x, y) != tr.Holds(inv, y, x) {
					t.Fatalf("%v(%d,%d) != %v(%d,%d)", a, x, y, inv, y, x)
				}
			}
		}
	}
}

func TestAxisStringAndParse(t *testing.T) {
	for _, a := range AllAxes() {
		s := a.String()
		got, err := ParseAxis(s)
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", s, err)
			continue
		}
		if got != a {
			t.Errorf("ParseAxis(%q) = %v, want %v", s, got, a)
		}
	}
	xpathNames := map[string]Axis{
		"descendant":         Descendant,
		"descendant-or-self": DescendantOrSelf,
		"following-sibling":  FollowingSibling,
		"preceding-sibling":  PrecedingSibling,
		"parent":             Parent,
		"ancestor":           Ancestor,
		"following":          Following,
		"preceding":          Preceding,
	}
	for s, want := range xpathNames {
		got, err := ParseAxis(s)
		if err != nil || got != want {
			t.Errorf("ParseAxis(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseAxis("bogus"); err == nil {
		t.Errorf("ParseAxis(bogus) should fail")
	}
}

func TestForwardAxes(t *testing.T) {
	for _, a := range []Axis{Self, Child, Descendant, DescendantOrSelf,
		NextSiblingAxis, FollowingSibling, FollowingSiblingOrSelf, Following} {
		if !a.IsForward() {
			t.Errorf("%v is a forward axis but IsForward is false", a)
		}
	}
	if Parent.IsForward() || Ancestor.IsForward() || Preceding.IsForward() {
		t.Errorf("reverse axes must not be forward")
	}
}

// TestOrderAxisCharacterization checks the two equivalences of Section 2:
//
//	Child+(x,y)    iff  x <pre y  and  y <post x
//	Following(x,y) iff  x <pre y  and  x <post y
//
// plus the definitions of <pre and <post from Child+ and Following.
func TestOrderAxisCharacterization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		tr := randomTree(rng, 1+rng.Intn(40), []string{"a"})
		for _, x := range tr.Nodes() {
			for _, y := range tr.Nodes() {
				pre := tr.Less(PreOrder, x, y)
				post := tr.Less(PostOrder, x, y)
				desc := tr.Holds(Descendant, x, y)
				foll := tr.Holds(Following, x, y)
				if desc != (pre && tr.Less(PostOrder, y, x)) {
					t.Fatalf("Child+ characterization fails at (%d,%d)", x, y)
				}
				if foll != (pre && post) {
					t.Fatalf("Following characterization fails at (%d,%d)", x, y)
				}
				// x <pre y iff Child+(x,y) or Following(x,y)
				if pre != (desc || foll) {
					t.Fatalf("<pre characterization fails at (%d,%d)", x, y)
				}
				// x <post y iff Child+(y,x) or Following(x,y)
				if post != (tr.Holds(Descendant, y, x) || foll) {
					t.Fatalf("<post characterization fails at (%d,%d)", x, y)
				}
			}
		}
	}
}

func TestPairs(t *testing.T) {
	tr := MustParseSexpr("a(b(c) d)")
	childPairs := tr.Pairs(Child)
	if len(childPairs) != 3 {
		t.Errorf("Child pairs = %v", childPairs)
	}
	descPairs := tr.Pairs(Descendant)
	if len(descPairs) != 4 {
		t.Errorf("Descendant pairs = %v", descPairs)
	}
	follPairs := tr.Pairs(Following)
	// b<d, c<d.
	if len(follPairs) != 2 {
		t.Errorf("Following pairs = %v", follPairs)
	}
}

// TestQuickAxisPartition property-checks that for any two distinct nodes x,y
// exactly one of Child+(x,y), Child+(y,x), Following(x,y), Following(y,x)
// holds (the total-order decomposition used in the proof of Theorem 5.1).
func TestQuickAxisPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64, size uint8) bool {
		n := int(size%60) + 2
		tr := randomTree(rand.New(rand.NewSource(seed)), n, []string{"a", "b"})
		x := NodeID(rng.Intn(n))
		y := NodeID(rng.Intn(n))
		if x == y {
			return true
		}
		count := 0
		if tr.Holds(Descendant, x, y) {
			count++
		}
		if tr.Holds(Descendant, y, x) {
			count++
		}
		if tr.Holds(Following, x, y) {
			count++
		}
		if tr.Holds(Following, y, x) {
			count++
		}
		return count == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOrderStrings(t *testing.T) {
	if PreOrder.String() != "<pre" || PostOrder.String() != "<post" || BFLROrder.String() != "<bflr" {
		t.Errorf("Order.String wrong")
	}
	if len(AllOrders()) != 3 {
		t.Errorf("AllOrders wrong")
	}
}
