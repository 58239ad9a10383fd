package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// entry is one element of a /v1 response envelope's results array, and the
// form the oracle flattens its own core.Result values into.
type entry struct {
	Doc        string  `json:"doc"`
	DocVersion uint64  `json:"doc_version"`
	Node       int32   `json:"node"`
	Answer     []int32 `json:"answer"`
	Score      *int    `json:"score"`
}

// envelope is the part of a /v1 query response the oracle checks, plus the
// ?debug=timings echo the traced run reads.
type envelope struct {
	Results   []entry `json:"results"`
	Total     int     `json:"total"`
	Truncated bool    `json:"truncated"`
	Timings   *struct {
		Stages []struct {
			Stage string `json:"stage"`
			NS    int64  `json:"ns"`
		} `json:"stages"`
	} `json:"timings"`
}

// putReply is the part of a PUT /v1/docs/{name} response the oracle checks.
type putReply struct {
	Doc     string `json:"doc"`
	Version uint64 `json:"version"`
}

// expect is the oracle's answer to one (document content, query) pair: the
// result count before the limit, whether the limit cut it, and a digest of
// the results after the cut.  Document versions are not part of the digest;
// they are checked against the request's expected version.
type expect struct {
	total     int
	truncated bool
	digest    uint64
}

type expectKey struct{ doc, state, q int }

// oracle holds the expected answer of every request a workload can issue.
type oracle struct {
	c     *corpus
	table map[expectKey]expect
}

func digestEntries(es []entry) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range es {
		h.Write([]byte(e.Doc))
		put(int64(e.Node))
		put(int64(len(e.Answer)))
		for _, a := range e.Answer {
			put(int64(a))
		}
		if e.Score == nil {
			put(-1)
		} else {
			put(int64(*e.Score))
		}
	}
	return h.Sum64()
}

// flatten renders a core.Result as envelope entries in the daemon's order:
// ranked hits, then nodes, then answer tuples headed by their first node.
func flatten(doc string, res *core.Result) []entry {
	out := make([]entry, 0, len(res.Hits)+len(res.Nodes)+len(res.Answers))
	for _, h := range res.Hits {
		score := h.Distance
		out = append(out, entry{Doc: doc, Node: int32(h.Node), Score: &score})
	}
	for _, n := range res.Nodes {
		out = append(out, entry{Doc: doc, Node: int32(n)})
	}
	for _, a := range res.Answers {
		e := entry{Doc: doc, Answer: make([]int32, len(a))}
		for i, n := range a {
			e.Answer[i] = int32(n)
		}
		if len(a) > 0 {
			e.Node = e.Answer[0]
		}
		out = append(out, e)
	}
	return out
}

func lessAnswer(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// mergeCorpus orders the concatenated per-document entries of a corpus query
// as the API documents it: ranked hits by (distance, document, node), node
// lists by (document, node), tuples by (document, tuple).
func mergeCorpus(es []entry) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Score != nil && b.Score != nil && *a.Score != *b.Score {
			return *a.Score < *b.Score
		}
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		if a.Answer != nil || b.Answer != nil {
			return lessAnswer(a.Answer, b.Answer)
		}
		return a.Node < b.Node
	})
}

func cut(es []entry, limit int) expect {
	x := expect{total: len(es)}
	if limit > 0 && len(es) > limit {
		es = es[:limit]
		x.truncated = true
	}
	x.digest = digestEntries(es)
	return x
}

// newOracle evaluates every (document content, query) pair of the corpus on a
// fresh engine built from scratch — no service, no plan cache, no patching —
// which is the ground truth the daemon's answers are held to.
func newOracle(c *corpus) (*oracle, error) {
	o := &oracle{c: c, table: map[expectKey]expect{}}
	ctx := context.Background()
	corpusEntries := make([][]entry, len(c.queries))
	for d, doc := range c.docs {
		for st, state := range doc.states {
			eng := core.New(state.tree)
			for qi, q := range c.queries {
				pq, err := eng.Prepare(q.lang, q.text)
				if err != nil {
					return nil, fmt.Errorf("oracle: %s %q: %w", q.lang, q.text, err)
				}
				res, _, err := pq.Exec(ctx)
				if err != nil {
					return nil, fmt.Errorf("oracle: %s %q on %s: %w", q.lang, q.text, doc.name, err)
				}
				es := flatten(doc.name, res)
				if q.corpus {
					corpusEntries[qi] = append(corpusEntries[qi], es...)
				} else {
					o.table[expectKey{d, st, qi}] = cut(es, q.limit)
				}
			}
		}
	}
	for qi, q := range c.queries {
		if q.corpus {
			mergeCorpus(corpusEntries[qi])
			o.table[expectKey{-1, 0, qi}] = cut(corpusEntries[qi], q.limit)
		}
	}
	return o, nil
}

// check reports why a response fails the oracle, or "" when it passes.
func (o *oracle) check(r request, status int, body []byte) string {
	_, why := o.checkReply(r, status, body)
	return why
}

// checkReply is check that also hands back the decoded envelope of a query.
func (o *oracle) checkReply(r request, status int, body []byte) (*envelope, string) {
	if status < 200 || status > 299 {
		return nil, fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if r.q < 0 {
		var rep putReply
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, "bad PUT reply: " + err.Error()
		}
		if rep.Doc != o.c.docs[r.doc].name || rep.Version != r.version {
			return nil, fmt.Sprintf("PUT reply %s@%d, want %s@%d", rep.Doc, rep.Version, o.c.docs[r.doc].name, r.version)
		}
		return nil, ""
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, "bad envelope: " + err.Error()
	}
	return &env, o.checkEnvelope(r, &env)
}

func (o *oracle) checkEnvelope(r request, env *envelope) string {
	want := o.table[expectKey{r.doc, r.state, r.q}]
	if env.Total != want.total || env.Truncated != want.truncated {
		return fmt.Sprintf("total %d truncated %v, want %d %v", env.Total, env.Truncated, want.total, want.truncated)
	}
	for _, e := range env.Results {
		if e.DocVersion != r.version {
			return fmt.Sprintf("doc_version %d on %s, want %d", e.DocVersion, e.Doc, r.version)
		}
	}
	if got := digestEntries(env.Results); got != want.digest {
		return fmt.Sprintf("results digest %016x, want %016x", got, want.digest)
	}
	return ""
}

// digest folds the whole expected-answer table into one line, so that answers
// drifting between commits are caught against a checked-in value.
func (o *oracle) digest() string {
	keys := make([]expectKey, 0, len(o.table))
	for k := range o.table {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.doc != b.doc {
			return a.doc < b.doc
		}
		if a.state != b.state {
			return a.state < b.state
		}
		return a.q < b.q
	})
	var h hash.Hash64 = fnv.New64a()
	for _, k := range keys {
		x := o.table[k]
		fmt.Fprintf(h, "%d/%d/%d %d %v %016x\n", k.doc, k.state, k.q, x.total, x.truncated, x.digest)
	}
	return fmt.Sprintf("%016x %d", h.Sum64(), len(keys))
}

func goldenPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.digest", workload, seed))
}

// checkGolden compares the oracle's digest with the checked-in one for this
// seed, when there is one.
func (o *oracle) checkGolden(dir string) error {
	path := goldenPath(dir, o.c.name, o.c.seed)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if got := o.digest(); got != strings.TrimSpace(string(want)) {
		return fmt.Errorf("expected answers changed: %s has %q, this commit computes %q", path, strings.TrimSpace(string(want)), got)
	}
	return nil
}
