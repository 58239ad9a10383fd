package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cq"
)

const sampleXML = `<site><regions><region><item id="1"><name>n1</name><description><keyword/></description></item>
<item id="2"><name>n2</name></item></region></regions><people><person/></people></site>`

func newEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := FromXML(sampleXML, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFromXMLAndDocument(t *testing.T) {
	e := newEngine(t)
	if e.Document().Label(e.Document().Root()) != "site" {
		t.Errorf("root label wrong")
	}
	if _, err := FromXML("<broken>"); err == nil {
		t.Errorf("invalid XML should fail")
	}
}

func TestXPathStrategies(t *testing.T) {
	auto := newEngine(t)
	naive := newEngine(t, WithStrategy(Naive))
	for _, q := range []string{"//item", "//item[name]/description//keyword", "//item[not(description)]"} {
		a, planA, err := auto.XPath(q)
		if err != nil {
			t.Fatalf("auto %q: %v", q, err)
		}
		n, planN, err := naive.XPath(q)
		if err != nil {
			t.Fatalf("naive %q: %v", q, err)
		}
		if len(a) != len(n) {
			t.Errorf("%q: auto %d nodes, naive %d", q, len(a), len(n))
		}
		if planA.Technique == planN.Technique {
			t.Errorf("strategies should differ: %q vs %q", planA.Technique, planN.Technique)
		}
		if !strings.Contains(planA.String(), "xpath") {
			t.Errorf("plan string wrong: %s", planA)
		}
	}
	if _, _, err := auto.XPath("//["); err == nil {
		t.Errorf("parse error should propagate")
	}
}

func TestCQPlanning(t *testing.T) {
	e := newEngine(t)
	// Acyclic query -> arc-consistency.
	ans, plan, err := e.CQ("Q(k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).")
	if err != nil {
		t.Fatalf("CQ: %v", err)
	}
	if len(ans) != 1 {
		t.Errorf("answers = %v", ans)
	}
	if !strings.Contains(plan.Technique, "arc-consistency") {
		t.Errorf("acyclic query should use arc-consistency, got %q", plan.Technique)
	}
	// Cyclic Boolean queries over tau1, tau2 and tau3 -> X-property, with the
	// naive answer.
	for _, text := range []string{
		"Q :- Child+(x, y), Child+(y, z), Child+(x, z), Lab[keyword](z).",
		"Q :- Lab[keyword](a), Lab[keyword](b), Lab[name](c), Following(a, b), Following(b, c), Following(a, c).",
		"Q :- Lab[item](a), Lab[name](b), Lab[description](c), Child(a, b), NextSibling+(b, c), Child(a, c).",
	} {
		ans, plan, err = e.CQ(text)
		if err != nil {
			t.Fatalf("CQ: %v", err)
		}
		if plan.Technique != "X-property arc-consistency (Theorem 6.5)" {
			t.Errorf("%s: cyclic Boolean query should use the X-property route, got %q (%s)", text, plan.Technique, plan)
		}
		if want := cq.Satisfiable(cq.MustParse(text), e.Document()); (len(ans) == 1) != want {
			t.Errorf("%s: %d answers, naive satisfiable = %v", text, len(ans), want)
		}
	}
	// Cyclic non-Boolean query -> rewrite route.
	_, plan, err = e.CQ("Q(z) :- Child(x, y), Child+(y, z), Child+(x, z), Lab[item](y).")
	if err != nil {
		t.Fatalf("CQ: %v", err)
	}
	if !strings.Contains(plan.Technique, "rewrite") {
		t.Errorf("cyclic mixed-axis query should use the rewrite route, got %q", plan.Technique)
	}
	// Parse errors propagate.
	if _, _, err := e.CQ("Q(x) :-"); err == nil {
		t.Errorf("parse error should propagate")
	}
}

func TestDatalog(t *testing.T) {
	e := newEngine(t)
	prog := `P0(x) :- Lab[keyword](x).
P0(x) :- NextSibling(x, y), P0(y).
P(x)  :- FirstChild(x, y), P0(y).
P0(x) :- P(x).
?- P.`
	fast, plan, err := e.Datalog(prog)
	if err != nil {
		t.Fatalf("Datalog: %v", err)
	}
	if !strings.Contains(plan.Technique, "TMNF sweeps") || !strings.Contains(plan.String(), "components in order: backward sweep") {
		t.Errorf("plan = %s", plan)
	}
	slow, _, err := New(e.Document(), WithStrategy(Naive)).Datalog(prog)
	if err != nil {
		t.Fatalf("naive Datalog: %v", err)
	}
	if len(fast) != len(slow) {
		t.Errorf("fast %v, slow %v", fast, slow)
	}
	if len(fast) == 0 {
		t.Errorf("some node should have a keyword descendant")
	}
	if _, _, err := e.Datalog("junk("); err == nil {
		t.Errorf("parse error should propagate")
	}
}

func TestTwigAndStream(t *testing.T) {
	e := newEngine(t)
	ans, plan, err := e.Twig("//item[name]/description//keyword")
	if err != nil {
		t.Fatalf("Twig: %v", err)
	}
	if len(ans) != 1 || !strings.Contains(plan.Technique, "arc-consistency") {
		t.Errorf("Twig answers = %v, plan = %s", ans, plan)
	}
	if _, _, err := e.Twig("//a[not(b)]"); err == nil {
		t.Errorf("non-conjunctive twig should fail")
	}

	pq, err := e.Prepare(LangStream, "//item/name")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	res, _, err := pq.Exec(context.Background())
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(res.Nodes) != 2 {
		t.Errorf("stream matches = %v", res.Nodes)
	}
	if _, err := e.Prepare(LangStream, "//item[name]"); err == nil {
		t.Errorf("unsupported streaming query should fail")
	}
	if _, err := e.Prepare(LangStream, "//["); err == nil {
		t.Errorf("parse error should propagate")
	}
}
