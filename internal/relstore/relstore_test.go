package relstore

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func sampleR() *Relation {
	r := NewRelation("R", "a", "b")
	r.Insert(1, 2)
	r.Insert(3, 4)
	r.Insert(3, 5)
	return r
}

func sampleS() *Relation {
	s := NewRelation("S", "b", "c")
	s.Insert(2, 10)
	s.Insert(4, 20)
	s.Insert(4, 21)
	s.Insert(9, 30)
	return s
}

func TestBasicsAndInsert(t *testing.T) {
	r := sampleR()
	if r.Name() != "R" || r.Arity() != 2 || r.Len() != 3 {
		t.Errorf("basic accessors wrong: %s %d %d", r.Name(), r.Arity(), r.Len())
	}
	if r.ColumnIndex("b") != 1 || r.ColumnIndex("zzz") != -1 {
		t.Errorf("ColumnIndex wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("arity mismatch on Insert should panic")
			}
		}()
		r.Insert(1)
	}()
}

func TestSelectProjectDistinct(t *testing.T) {
	r := sampleR()
	sel := r.SelectEq("sel", "a", 3)
	if sel.Len() != 2 {
		t.Errorf("SelectEq len = %d", sel.Len())
	}
	proj := r.Project("proj", "a")
	if proj.Len() != 3 || proj.Arity() != 1 {
		t.Errorf("Project wrong: %v", proj)
	}
	dist := proj.Distinct("dist")
	if dist.Len() != 2 {
		t.Errorf("Distinct len = %d", dist.Len())
	}
	// Projection onto unknown column panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Project of unknown column should panic")
			}
		}()
		r.Project("x", "nope")
	}()
}

func TestCloneRenameUnion(t *testing.T) {
	r := sampleR()
	c := r.Clone("")
	c.Insert(9, 9)
	if r.Len() != 3 || c.Len() != 4 {
		t.Errorf("Clone is not independent")
	}
	u := r.Union("u", sampleR())
	if u.Len() != 6 {
		t.Errorf("Union len = %d", u.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Union of different arities should panic")
			}
		}()
		r.Union("bad", r.Project("p", "a"))
	}()
}

func TestNaturalJoin(t *testing.T) {
	r, s := sampleR(), sampleS()
	j := r.NaturalJoin("J", s)
	// (1,2)x(2,10); (3,4)x(4,20); (3,4)x(4,21).
	if j.Len() != 3 {
		t.Fatalf("NaturalJoin len = %d: %v", j.Len(), j.Tuples())
	}
	if strings.Join(j.Columns(), ",") != "a,b,c" {
		t.Errorf("join columns = %v", j.Columns())
	}
	sum := int64(0)
	for _, tp := range j.Tuples() {
		sum += tp[2]
	}
	if sum != 10+20+21 {
		t.Errorf("joined c values wrong, sum = %d", sum)
	}
	// Join with no shared columns = cross product.
	x := NewRelation("X", "p")
	x.Insert(1)
	x.Insert(2)
	cross := r.NaturalJoin("cross", x)
	if cross.Len() != 6 {
		t.Errorf("cross product len = %d", cross.Len())
	}
}

func TestSemiJoin(t *testing.T) {
	r, s := sampleR(), sampleS()
	sj := r.SemiJoin("sj", s)
	if sj.Len() != 2 { // (1,2) and (3,4) have a matching b; (3,5) does not
		t.Errorf("SemiJoin len = %d, want 2", sj.Len())
	}
	s2 := NewRelation("S2", "b")
	s2.Insert(4)
	sj2 := r.SemiJoin("sj2", s2)
	if sj2.Len() != 1 {
		t.Errorf("SemiJoin len = %d, want 1", sj2.Len())
	}
	// Semijoin with empty relation sharing no columns.
	empty := NewRelation("E", "z")
	if r.SemiJoin("x", empty).Len() != 0 {
		t.Errorf("semijoin with empty unrelated relation should be empty")
	}
	nonempty := NewRelation("N", "z")
	nonempty.Insert(1)
	if r.SemiJoin("x", nonempty).Len() != r.Len() {
		t.Errorf("semijoin with nonempty unrelated relation should be r")
	}
}

func TestThetaJoinNestedLoop(t *testing.T) {
	r, s := sampleR(), sampleS()
	j := r.ThetaJoinNestedLoop("J", s, func(a, b Tuple) bool { return a[1] < b[0] })
	// pairs with R.b < S.b: (1,2)x(4,*),(9,*) = 3; (3,4)x(9,30) = 1; (3,5)x(9,30) = 1.
	if j.Len() != 5 {
		t.Errorf("theta join len = %d", j.Len())
	}
	// Name-collision handling for shared column names.
	if strings.Join(j.Columns(), ",") != "a,b,S.b,c" {
		t.Errorf("theta join columns = %v", j.Columns())
	}
}

func TestIntervalJoinMergeMatchesNestedLoop(t *testing.T) {
	// Random nested intervals simulating (pre, post) regions: generate a random
	// tree-like nesting by random intervals that either nest or are disjoint.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		anc := NewRelation("anc", "pre", "post")
		des := NewRelation("des", "pre", "post")
		// Build a random balanced-parenthesis structure of n nodes.
		n := 2 + rng.Intn(40)
		type node struct{ pre, post int64 }
		var nodes []node
		var build func(lo int64) int64
		ctr := int64(0)
		build = func(lo int64) int64 {
			pre := ctr
			ctr++
			kids := rng.Intn(3)
			for i := 0; i < kids && int(ctr) < n; i++ {
				build(ctr)
			}
			post := ctr
			ctr++
			nodes = append(nodes, node{pre, post})
			return post
		}
		for int(ctr) < n {
			build(ctr)
		}
		for _, nd := range nodes {
			anc.Insert(nd.pre, nd.post)
			des.Insert(nd.pre, nd.post)
		}
		merge := anc.IntervalJoinMerge("m", "pre", "post", des, "pre", "post")
		naive := anc.ThetaJoinNestedLoop("n", des, func(a, b Tuple) bool {
			return a[0] < b[0] && b[1] < a[1]
		})
		if merge.Len() != naive.Len() {
			t.Fatalf("trial %d: merge join %d pairs, nested loop %d", trial, merge.Len(), naive.Len())
		}
		// Same pair sets.
		key := func(tp Tuple) string { return tupleKey(tp) }
		a := map[string]bool{}
		for _, tp := range merge.Tuples() {
			a[key(tp)] = true
		}
		for _, tp := range naive.Tuples() {
			if !a[key(tp)] {
				t.Fatalf("trial %d: pair %v missing from merge join", trial, tp)
			}
		}
	}
}

func TestSortByAndString(t *testing.T) {
	r := NewRelation("R", "a", "b")
	r.Insert(3, 1)
	r.Insert(1, 2)
	r.Insert(3, 0)
	out := r.String()
	if !strings.Contains(out, "R(a, b), 3 tuples") {
		t.Errorf("String header wrong: %q", out)
	}
	if !sort.SliceIsSorted([]int{1, 2, 3}, func(i, j int) bool { return i < j }) {
		t.Errorf("sanity")
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Code("alpha")
	b := d.Code("beta")
	if a == b {
		t.Errorf("distinct strings share a code")
	}
	if d.Code("alpha") != a {
		t.Errorf("Code not stable")
	}
	if d.String(a) != "alpha" || d.String(b) != "beta" {
		t.Errorf("String lookup wrong")
	}
	if d.String(99) != "" || d.String(-1) != "" {
		t.Errorf("unknown code should map to empty string")
	}
	if c, ok := d.Lookup("beta"); !ok || c != b {
		t.Errorf("Lookup wrong")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Errorf("Lookup of unknown string should fail")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}
