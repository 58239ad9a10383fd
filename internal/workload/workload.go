// Package workload generates synthetic tree-structured documents and random
// queries.  It stands in for the XML corpora used in the literature the
// paper surveys (DESIGN.md, substitution table): only the tree shape, the
// label distribution, and the document size/depth matter for the paper's
// claims, and all three are parameters here.
//
// All generators are deterministic given a seed, so every benchmark and
// experiment in EXPERIMENTS.md is reproducible.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/tree"
)

// TreeSpec parameterizes the random tree generator.
type TreeSpec struct {
	// Nodes is the number of nodes to generate (>= 1).
	Nodes int
	// MaxFanout bounds the number of children per node; 0 means unbounded
	// (parents are chosen uniformly among all existing nodes).
	MaxFanout int
	// MaxDepth bounds the depth of the tree; 0 means unbounded.
	MaxDepth int
	// Alphabet is the label alphabet; if empty, DefaultAlphabet is used.
	Alphabet []string
	// Seed makes the generation deterministic.
	Seed int64
	// LabelSkew, when > 0, draws labels from a Zipf-like distribution with
	// the given exponent instead of uniformly (selective labels matter for
	// output-sensitive claims such as Proposition 6.10).
	LabelSkew float64
}

// ScrambledTree builds a random tree whose children are attached to random
// earlier nodes — out of document order, so Build's renumbering into
// preorder is exercised — with zero to two of the labels a, b, c per node
// (unlabeled and multi-labeled nodes included): the document shape of the
// differential tests.
func ScrambledTree(nodes int, seed int64) *tree.Tree {
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
	for i := 1; i < nodes; i++ {
		b.AddChild(tree.NodeID(rng.Intn(i)), labels()...)
	}
	return b.MustBuild()
}

// DefaultAlphabet is the label alphabet used when none is specified.
var DefaultAlphabet = []string{"a", "b", "c", "d", "e"}

// RandomTree generates a random unranked tree according to spec.  Nodes are
// attached to a uniformly random earlier node subject to the fan-out and
// depth limits, which yields the shallow, bushy shape typical of real XML.
func RandomTree(spec TreeSpec) *tree.Tree {
	if spec.Nodes < 1 {
		spec.Nodes = 1
	}
	alphabet := spec.Alphabet
	if len(alphabet) == 0 {
		alphabet = DefaultAlphabet
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pick := labelPicker(rng, alphabet, spec.LabelSkew)

	b := tree.NewBuilder()
	b.AddRoot(pick())
	depth := make([]int, 1, spec.Nodes)
	fanout := make([]int, 1, spec.Nodes)
	for i := 1; i < spec.Nodes; i++ {
		// Rejection-sample a parent that satisfies the constraints; fall back
		// to the most recently added admissible node if sampling fails.
		var parent tree.NodeID = -1
		for tries := 0; tries < 32; tries++ {
			cand := tree.NodeID(rng.Intn(i))
			if spec.MaxFanout > 0 && fanout[cand] >= spec.MaxFanout {
				continue
			}
			if spec.MaxDepth > 0 && depth[cand]+1 >= spec.MaxDepth {
				continue
			}
			parent = cand
			break
		}
		if parent < 0 {
			for j := i - 1; j >= 0; j-- {
				if (spec.MaxFanout <= 0 || fanout[j] < spec.MaxFanout) &&
					(spec.MaxDepth <= 0 || depth[j]+1 < spec.MaxDepth) {
					parent = tree.NodeID(j)
					break
				}
			}
		}
		if parent < 0 {
			parent = 0 // give up on the constraints rather than fail
		}
		id := b.AddChild(parent, pick())
		_ = id
		fanout[parent]++
		depth = append(depth, depth[parent]+1)
		fanout = append(fanout, 0)
	}
	return b.MustBuild()
}

// labelPicker returns a closure drawing labels uniformly or Zipf-skewed.
func labelPicker(rng *rand.Rand, alphabet []string, skew float64) func() string {
	if skew <= 0 {
		return func() string { return alphabet[rng.Intn(len(alphabet))] }
	}
	z := rand.NewZipf(rng, skew+1, 1, uint64(len(alphabet)-1))
	return func() string { return alphabet[z.Uint64()] }
}

// PathTree generates a degenerate tree: a single path of n nodes.  Deep
// documents are the worst case for the streaming memory bound of Section 7.
func PathTree(n int, label string) *tree.Tree {
	if n < 1 {
		n = 1
	}
	b := tree.NewBuilder()
	cur := b.AddRoot(label)
	for i := 1; i < n; i++ {
		cur = b.AddChild(cur, label)
	}
	return b.MustBuild()
}

// WideTree generates a root with n-1 children ("star"): the shallowest
// possible document of n nodes.
func WideTree(n int, label string) *tree.Tree {
	if n < 1 {
		n = 1
	}
	b := tree.NewBuilder()
	root := b.AddRoot(label)
	for i := 1; i < n; i++ {
		b.AddChild(root, label)
	}
	return b.MustBuild()
}

// CompleteTree generates the complete k-ary tree of the given depth
// (depth 1 = just the root), labeling level d with levels[d % len(levels)].
func CompleteTree(fanout, depth int, levels []string) *tree.Tree {
	if fanout < 1 {
		fanout = 1
	}
	if depth < 1 {
		depth = 1
	}
	if len(levels) == 0 {
		levels = DefaultAlphabet
	}
	b := tree.NewBuilder()
	root := b.AddRoot(levels[0])
	frontier := []tree.NodeID{root}
	for d := 1; d < depth; d++ {
		var next []tree.NodeID
		lab := levels[d%len(levels)]
		for _, p := range frontier {
			for i := 0; i < fanout; i++ {
				next = append(next, b.AddChild(p, lab))
			}
		}
		frontier = next
	}
	return b.MustBuild()
}

// DocSpec parameterizes the "site"-shaped document generator, a miniature
// XMark-style catalog of regions, items, and nested descriptions.
type DocSpec struct {
	// Items is the number of <item> elements (>= 1).
	Items int
	// Regions is the number of <region> groups the items are spread over.
	Regions int
	// DescriptionDepth is the nesting depth of <parlist>/<listitem> inside
	// each description.
	DescriptionDepth int
	// Seed makes generation deterministic.
	Seed int64
}

// SiteDocument generates a document shaped like the XMark auction benchmark
// (site/regions/region/item/description/parlist/listitem/keyword ...), which
// is the canonical workload shape for twig-pattern and XPath benchmarks.
func SiteDocument(spec DocSpec) *tree.Tree {
	if spec.Items < 1 {
		spec.Items = 1
	}
	if spec.Regions < 1 {
		spec.Regions = 1
	}
	if spec.DescriptionDepth < 1 {
		spec.DescriptionDepth = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	b := tree.NewBuilder()
	site := b.AddRoot("site")
	regions := b.AddChild(site, "regions")
	regionNames := []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	regionNodes := make([]tree.NodeID, spec.Regions)
	for i := range regionNodes {
		regionNodes[i] = b.AddChild(regions, "region", "@name="+regionNames[i%len(regionNames)])
	}
	people := b.AddChild(site, "people")
	for i := 0; i < spec.Items; i++ {
		region := regionNodes[rng.Intn(len(regionNodes))]
		item := b.AddChild(region, "item")
		b.AddLabel(item, fmt.Sprintf("@id=item%d", i))
		nameN := b.AddChild(item, "name")
		b.SetText(nameN, fmt.Sprintf("item %d", i))
		b.AddChild(item, "quantity")
		desc := b.AddChild(item, "description")
		cur := desc
		for d := 0; d < spec.DescriptionDepth; d++ {
			par := b.AddChild(cur, "parlist")
			li := b.AddChild(par, "listitem")
			kw := b.AddChild(li, "keyword")
			b.SetText(kw, fmt.Sprintf("kw%d", rng.Intn(16)))
			b.AddChild(li, "text")
			cur = li
		}
		if rng.Intn(3) == 0 {
			b.AddChild(item, "mailbox")
		}
		person := b.AddChild(people, "person")
		b.AddLabel(person, fmt.Sprintf("@id=person%d", i))
		pn := b.AddChild(person, "name")
		b.SetText(pn, fmt.Sprintf("person %d", i))
		if rng.Intn(2) == 0 {
			b.AddChild(person, "emailaddress")
		}
	}
	return b.MustBuild()
}
