package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// langs is every query language, in report order.
var langs = []string{
	core.LangXPath, core.LangCQ, core.LangTwig, core.LangDatalog, core.LangStream, core.LangSimilar,
}

// Request kinds are the unit the per-kind client latencies are reported in: a
// single-document query is of its language's kind, the rest of one of these.
const (
	kindCorpusXPath   = "corpus-xpath"
	kindCorpusSimilar = "corpus-similar"
	kindPutSmall      = "put-small"
	kindPutBig        = "put-big"
)

// kinds is every request kind, in report order.
var kinds = append(append([]string(nil), langs...), kindCorpusXPath, kindCorpusSimilar, kindPutSmall, kindPutBig)

// query is one read the workload issues: a single-document POST /v1/query, or
// (corpus) a POST /v1/corpus/query over every document.
type query struct {
	lang   string
	text   string
	limit  int
	corpus bool
}

func (q query) kind() string {
	if !q.corpus {
		return q.lang
	}
	if q.lang == core.LangSimilar {
		return kindCorpusSimilar
	}
	return kindCorpusXPath
}

// spec is the seed-independent definition of a workload.
type spec struct {
	name    string
	why     string
	docs    int
	items   int
	queries []query
	// zipf > 0 draws the document of each read from Zipf(zipf) over the
	// document ranks; 0 draws uniformly.
	zipf float64
	// writeShare is the fraction of requests that are PUTs on live documents.
	writeShare float64
	// traceN is the fixed request count of the traced run.
	traceN int
}

// ancestorProgram is the 4-rule monadic datalog program of experiment E4,
// over the site documents' keyword label: every node with a keyword below it
// or below a following sibling chain.
const ancestorProgram = "P0(x) :- Lab[keyword](x).\nP0(x) :- NextSibling(x, y), P0(y).\nP(x) :- FirstChild(x, y), P0(y).\nP0(x) :- P(x).\n?- P."

var specs = []spec{
	{
		name: "point_hot",
		why:  "cached XPath on small documents: HTTP, gate, plan lookup and encoding are most of the request, the evaluators almost none",
		docs: 64, items: 40, zipf: 1.1, traceN: 5000,
		queries: []query{
			{lang: core.LangXPath, text: "//item[name]/description//keyword", limit: 20},
			{lang: core.LangXPath, text: "//item[not(mailbox)]/name", limit: 20},
			{lang: core.LangXPath, text: "//keyword | //emailaddress", limit: 20},
			{lang: core.LangXPath, text: "//region//item[name]", limit: 20},
		},
	},
	{
		name: "join_mix",
		why:  "conjunctive queries and twigs on 3k-node documents: the relational evaluators are over 99% of a request",
		docs: 6, items: 200, traceN: 120,
		queries: []query{
			{lang: core.LangCQ, text: "Q(i, k) :- Lab[item](i), Child(i, d), Lab[description](d), Child+(d, k), Lab[keyword](k).", limit: 50},
			{lang: core.LangCQ, text: "Q(k) :- Lab[@name=africa](r), Child+(r, k), Lab[keyword](k).", limit: 50},
			{lang: core.LangCQ, text: "Q(i, n) :- Lab[item](i), Child(i, n), Lab[name](n), Child(i, m), Lab[mailbox](m).", limit: 50},
			{lang: core.LangCQ, text: "Q(i, k) :- Lab[item](i), Child+(i, k), Lab[keyword](k), Child+(i, t), Lab[text](t), Following(k, t).", limit: 50},
			{lang: core.LangTwig, text: "//item[name]/description//keyword", limit: 50},
			{lang: core.LangTwig, text: "//region//item[mailbox]//keyword", limit: 50},
		},
	},
	{
		name: "scan_mix",
		why:  "XPath, datalog, streaming and similarity on 15k-node documents: the linear-scan evaluators, none shared with join_mix",
		docs: 6, items: 1000, traceN: 600,
		queries: []query{
			{lang: core.LangXPath, text: "//item[name]/description//keyword", limit: 100},
			{lang: core.LangXPath, text: "//item[not(mailbox)]/name", limit: 100},
			{lang: core.LangDatalog, text: ancestorProgram, limit: 100},
			{lang: core.LangStream, text: "//item//keyword", limit: 100},
			{lang: core.LangStream, text: "//region/item/name", limit: 100},
			{lang: core.LangSimilar, text: "k=10 description(parlist(listitem(keyword text)))", limit: 100},
		},
	},
	{
		name: "corpus_fanout",
		why:  "corpus-wide queries over 32 small documents: the fan-out pool, aggregation and large-response encoding dominate",
		docs: 32, items: 100, traceN: 1000,
		queries: []query{
			{lang: core.LangXPath, text: "//item[name]/description//keyword", limit: 100, corpus: true},
			{lang: core.LangXPath, text: "//keyword", corpus: true},
			{lang: core.LangXPath, text: "//region//item[name]", limit: 20, corpus: true},
			{lang: core.LangSimilar, text: "k=5 description(parlist(listitem(keyword text)))", limit: 5, corpus: true},
		},
	},
	{
		name: "update_churn",
		why:  "80% reads beside 20% live PUTs on the same documents: the only workload that parses, diffs, patches and re-prepares",
		docs: 8, items: 400, writeShare: 0.2, traceN: 400,
		queries: []query{
			{lang: core.LangXPath, text: "//item[name]/description//keyword", limit: 100},
			{lang: core.LangXPath, text: "//item[not(mailbox)]/name", limit: 100},
			{lang: core.LangDatalog, text: ancestorProgram, limit: 100},
			{lang: core.LangStream, text: "//item//keyword", limit: 100},
			{lang: core.LangSimilar, text: "k=10 description(parlist(listitem(keyword text)))", limit: 100},
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Document states.  A read-only workload has one state per document.  A
// workload with writes gives every document 16: two unrelated base documents
// (the target of a whole-document replacement) times three independent
// single-node toggles.  Every write flips exactly one of the four bits, so
// the set of contents a document can take is closed and the oracle can
// evaluate all of them before the clock starts, while the daemon still sees
// an ever-growing version sequence.
const (
	bitText    = 1 << iota // one keyword's text is edited
	bitNode                // one extra <mailbox/> leaf is present
	bitRelabel             // one <quantity> is relabelled <amount>
	bitBase                // the document is the alternate base
	numStates  = 1 << iota
)

// writeBits is the bit each of ten consecutive writes flips, before
// shuffling: 30% text edit, 30% one-node insert or delete, 30% relabel, 10%
// whole replacement.
var writeBits = [10]int{bitText, bitText, bitText, bitNode, bitNode, bitNode, bitRelabel, bitRelabel, bitRelabel, bitBase}

// docState is one content a document can take.
type docState struct {
	xml  string
	tree *tree.Tree // parsed back from xml, so node ids are the daemon's
}

type document struct {
	name   string
	states []docState
}

// corpus is a workload instantiated for one seed: the documents, and the
// request bodies of every read.
type corpus struct {
	spec
	seed int64
	docs []document
	// bodies[q][d] is the JSON body of query q on document d (d is 0 for
	// corpus queries).
	bodies [][][]byte
}

// editSites are the three nodes of a base document the toggles act on,
// as node ids of the unedited base.
type editSites struct {
	text, parent, relabel tree.NodeID
}

func pickSites(t *tree.Tree, rng *rand.Rand) editSites {
	pick := func(label string) tree.NodeID {
		ns := t.NodesWithLabel(label)
		return ns[rng.Intn(len(ns))]
	}
	return editSites{text: pick("keyword"), parent: pick("item"), relabel: pick("quantity")}
}

// applyEdits copies base with the toggles in bits applied at sites.
func applyEdits(base *tree.Tree, sites editSites, bits int) *tree.Tree {
	b := tree.NewBuilder()
	var walk func(n, parent tree.NodeID)
	walk = func(n, parent tree.NodeID) {
		labels := append([]string(nil), base.Labels(n)...)
		if bits&bitRelabel != 0 && n == sites.relabel {
			labels[0] = "amount"
		}
		var id tree.NodeID
		if parent == tree.InvalidNode {
			id = b.AddRoot(labels...)
		} else {
			id = b.AddChild(parent, labels...)
		}
		text := base.Text(n)
		if bits&bitText != 0 && n == sites.text {
			text = "edited"
		}
		if text != "" {
			b.SetText(id, text)
		}
		for _, c := range base.Children(n) {
			walk(c, id)
		}
		if bits&bitNode != 0 && n == sites.parent {
			b.AddChild(id, "mailbox")
		}
	}
	walk(base.Root(), tree.InvalidNode)
	return b.MustBuild()
}

func newState(t *tree.Tree) docState {
	xml := xmldoc.Serialize(t, false)
	return docState{xml: xml, tree: xmldoc.MustParse(xml)}
}

// newCorpus generates the workload's documents and request bodies from seed.
func newCorpus(s spec, seed int64) *corpus {
	c := &corpus{spec: s, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for d := 0; d < s.docs; d++ {
		doc := document{name: fmt.Sprintf("d%02d", d)}
		site := func() *tree.Tree {
			return workload.SiteDocument(workload.DocSpec{
				Items: s.items, Regions: 6, DescriptionDepth: 2, Seed: rng.Int63(),
			})
		}
		if s.writeShare == 0 {
			doc.states = []docState{newState(site())}
		} else {
			doc.states = make([]docState, numStates)
			for base := 0; base < 2; base++ {
				t := site()
				sites := pickSites(t, rng)
				for bits := 0; bits < bitBase; bits++ {
					doc.states[base*bitBase+bits] = newState(applyEdits(t, sites, bits))
				}
			}
		}
		c.docs = append(c.docs, doc)
	}
	for _, q := range s.queries {
		n := len(c.docs)
		if q.corpus {
			n = 1
		}
		bodies := make([][]byte, n)
		for d := range bodies {
			body := map[string]any{"lang": q.lang, "query": q.text}
			if !q.corpus {
				body["doc"] = c.docs[d].name
			}
			if q.limit > 0 {
				body["limit"] = q.limit
			}
			bodies[d], _ = json.Marshal(body) // a map of strings and ints cannot fail
		}
		c.bodies = append(c.bodies, bodies)
	}
	return c
}

// request is one generated HTTP request plus what the oracle needs to check
// its response.
type request struct {
	kind   string
	method string
	path   string
	body   []byte
	// doc is the document index (-1 for corpus queries), state the content
	// the daemon must answer from (for a PUT, the content being written), q
	// the query index (-1 for a PUT), version the document version the
	// response must carry, flipped the state bit a PUT changed.
	doc     int
	state   int
	q       int
	version uint64
	flipped int
}

// group identifies requests alike in cost: those of one query, or the writes
// flipping one state bit.  A workload mixes groups whose costs differ by an
// order of magnitude, so the median of the mix falls between two groups and
// moves with the smallest change in their shares; the traced run's latency
// budget therefore takes a median per group and weights the groups by their
// requests.
func (r request) group() int {
	if r.q >= 0 {
		return r.q
	}
	return -r.flipped
}

// deck deals the numbers 0..n-1 in a seeded random order, reshuffling when it
// runs out.  Drawing a request mix from decks in place of independent draws
// keeps every share exact over each pass, so two seeds send the same mix in
// another order and differ in their metrics by less than a random mix would.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// slotsPerPass is the length of the read/write schedule a stream repeats.
const slotsPerPass = 10

// stream is one client's deterministic request sequence.  A client of a
// workload with writes owns the documents d with d % clients == client and
// touches no other, so every document's version sequence is decided by one
// goroutine and the oracle knows it.
type stream struct {
	c       *corpus
	zipf    *rand.Zipf
	own     []int
	state   []int
	version []uint64
	// slots schedules reads and writes (a card below writes is a write),
	// reads deals (query, own document) pairs — queries alone when documents
	// are drawn by popularity — and edits and targets deal the kind and the
	// document of each write.
	writes                       int
	slots, reads, edits, targets *deck
}

func newStream(c *corpus, client, clients int) *stream {
	rng := rand.New(rand.NewSource(c.seed*7919 + int64(client) + 1))
	s := &stream{
		c:       c,
		state:   make([]int, len(c.docs)),
		version: make([]uint64, len(c.docs)),
		writes:  int(c.writeShare*slotsPerPass + 0.5),
	}
	for d := range c.docs {
		s.version[d] = 1
		if c.writeShare == 0 || d%clients == client {
			s.own = append(s.own, d)
		}
	}
	if c.zipf > 0 {
		s.zipf = rand.NewZipf(rng, c.zipf, 1, uint64(len(s.own)-1))
		s.reads = newDeck(rng, len(c.queries))
	} else if c.queries[0].corpus {
		s.reads = newDeck(rng, len(c.queries))
	} else {
		s.reads = newDeck(rng, len(c.queries)*len(s.own))
	}
	s.slots = newDeck(rng, slotsPerPass)
	s.edits = newDeck(rng, len(writeBits))
	s.targets = newDeck(rng, len(s.own))
	return s
}

func (s *stream) next() request {
	if s.slots.draw() < s.writes {
		d := s.own[s.targets.draw()]
		bit := writeBits[s.edits.draw()]
		s.state[d] ^= bit
		s.version[d]++
		kind := kindPutSmall
		if bit == bitBase {
			kind = kindPutBig
		}
		return request{
			kind: kind, method: "PUT", path: "/v1/docs/" + s.c.docs[d].name,
			body: []byte(s.c.docs[d].states[s.state[d]].xml),
			doc:  d, state: s.state[d], q: -1, version: s.version[d], flipped: bit,
		}
	}
	card := s.reads.draw()
	qi := card % len(s.c.queries)
	q := s.c.queries[qi]
	if q.corpus {
		return request{kind: q.kind(), method: "POST", path: "/v1/corpus/query", body: s.c.bodies[qi][0], doc: -1, q: qi, version: 1}
	}
	var d int
	if s.zipf != nil {
		d = s.own[s.zipf.Uint64()]
	} else {
		d = s.own[card/len(s.c.queries)]
	}
	return request{
		kind: q.kind(), method: "POST", path: "/v1/query", body: s.c.bodies[qi][d],
		doc: d, state: s.state[d], q: qi, version: s.version[d],
	}
}

// warmRequests is every (document, query) pair once, in a fixed order: what
// set-up executes after loading so that no measured request compiles a plan.
func (c *corpus) warmRequests() []request {
	var out []request
	for qi, q := range c.queries {
		if q.corpus {
			out = append(out, request{kind: q.kind(), method: "POST", path: "/v1/corpus/query", body: c.bodies[qi][0], doc: -1, q: qi, version: 1})
			continue
		}
		for d := range c.docs {
			out = append(out, request{kind: q.kind(), method: "POST", path: "/v1/query", body: c.bodies[qi][d], doc: d, q: qi, version: 1})
		}
	}
	return out
}

// clients is how many closed-loop clients drive the workload: one per
// processor, but no more than there are documents, so that every client of a
// workload with writes owns at least one.
func (c *corpus) clients() int {
	return min(runtime.NumCPU(), len(c.docs))
}
