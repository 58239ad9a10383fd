// Package treewidth implements graphs, tree decompositions and width
// computation (Section 4 of the paper).  It is used to
//
//   - verify that (Child, NextSibling)-structures of unranked trees have
//     tree-width two (Figure 4),
//   - compute (an upper bound on) the tree-width of conjunctive-query graphs
//     via elimination-ordering heuristics (min-degree and min-fill), and
//   - check a claimed decomposition against the three conditions of the
//     definition, so that every decomposition produced by the package is
//     certified rather than trusted.
//
// Exact tree-width is NP-hard; the heuristics here are exact on forests
// (width 1), on graphs with a simplicial elimination ordering (in particular
// the width-2 data graphs of Figure 4), and are upper bounds elsewhere --
// which is what Theorem 4.1's O(|A|^{k+1}) bound needs.
package treewidth

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// Graph is a simple undirected graph over dense integer vertices 0..n-1.
type Graph struct {
	n   int
	adj []map[int]bool
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = map[int]bool{}
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// AddEdge adds the undirected edge {u, v}; self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		panic(fmt.Sprintf("treewidth: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return u != v && g.adj[u][v] }

// Neighbors returns the sorted neighbors of u.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Degree returns the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph(g.n)
	for u, a := range g.adj {
		for v := range a {
			out.adj[u][v] = true
		}
	}
	return out
}

// Decomposition is a tree decomposition: Bags[i] is the vertex set chi(i) of
// decomposition node i, and Parent[i] is the parent node (or -1 for the
// root), so the decomposition tree is explicit.
type Decomposition struct {
	Bags   [][]int
	Parent []int
}

// Width returns the width of the decomposition: max bag size minus one.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// Validate checks the three conditions of a tree decomposition of g:
// every vertex occurs in some bag, every edge is covered by some bag, and
// for every vertex the set of bags containing it induces a connected subtree.
func (d *Decomposition) Validate(g *Graph) error {
	if len(d.Bags) == 0 {
		return fmt.Errorf("treewidth: decomposition has no bags")
	}
	if len(d.Parent) != len(d.Bags) {
		return fmt.Errorf("treewidth: Parent and Bags lengths differ")
	}
	// Parent pointers form a forest with exactly one root reachable from all.
	roots := 0
	for i, p := range d.Parent {
		if p == -1 {
			roots++
		} else if p < 0 || p >= len(d.Bags) || p == i {
			return fmt.Errorf("treewidth: bad parent %d of bag %d", p, i)
		}
	}
	if roots != 1 {
		return fmt.Errorf("treewidth: decomposition has %d roots, want 1", roots)
	}

	inBag := make([][]int, g.n) // for each vertex, the bags containing it
	for bi, bag := range d.Bags {
		for _, v := range bag {
			if v < 0 || v >= g.n {
				return fmt.Errorf("treewidth: bag %d contains out-of-range vertex %d", bi, v)
			}
			inBag[v] = append(inBag[v], bi)
		}
	}
	for v := 0; v < g.n; v++ {
		if len(inBag[v]) == 0 {
			return fmt.Errorf("treewidth: vertex %d is in no bag", v)
		}
	}
	// Edge coverage.
	for u := 0; u < g.n; u++ {
		for v := range g.adj[u] {
			if v < u {
				continue
			}
			covered := false
			for _, bi := range inBag[u] {
				if contains(d.Bags[bi], v) {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("treewidth: edge (%d,%d) not covered by any bag", u, v)
			}
		}
	}
	// Connectedness of {bags containing v} in the decomposition tree: count
	// how many of those bags have a parent also containing v; connected iff
	// exactly one bag (the subtree root) lacks such a parent.
	for v := 0; v < g.n; v++ {
		rootsOfV := 0
		for _, bi := range inBag[v] {
			p := d.Parent[bi]
			if p == -1 || !contains(d.Bags[p], v) {
				rootsOfV++
			}
		}
		if rootsOfV != 1 {
			return fmt.Errorf("treewidth: bags containing vertex %d do not form a connected subtree", v)
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Heuristic selects the elimination-ordering heuristic.
type Heuristic int

const (
	// MinDegree eliminates a vertex of minimum current degree at each step.
	MinDegree Heuristic = iota
	// MinFill eliminates a vertex whose elimination adds the fewest fill
	// edges at each step.
	MinFill
)

// Decompose computes a tree decomposition of g using the elimination-game
// construction with the chosen heuristic, and returns it together with its
// width (an upper bound on the tree-width of g).  The returned decomposition
// always passes Validate.
func Decompose(g *Graph, h Heuristic) *Decomposition {
	if g.n == 0 {
		return &Decomposition{Bags: [][]int{{}}, Parent: []int{-1}}
	}
	work := g.Clone()
	eliminated := make([]bool, g.n)
	order := make([]int, 0, g.n)
	bagOf := make([][]int, g.n) // bag created when the vertex is eliminated

	for step := 0; step < g.n; step++ {
		v := pickVertex(work, eliminated, h)
		// Bag: v plus its current (uneliminated) neighbors.
		bag := []int{v}
		nbrs := []int{}
		for u := range work.adj[v] {
			if !eliminated[u] {
				bag = append(bag, u)
				nbrs = append(nbrs, u)
			}
		}
		sort.Ints(bag)
		bagOf[v] = bag
		order = append(order, v)
		eliminated[v] = true
		// Make the neighborhood a clique (fill edges).
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				work.AddEdge(nbrs[i], nbrs[j])
			}
		}
	}

	// Build the decomposition tree: the bag of vertex v (eliminated at step
	// s) is attached to the bag of the earliest-eliminated-after-v vertex
	// among v's bag members; the last eliminated vertex's bag is the root.
	pos := make([]int, g.n)
	for i, v := range order {
		pos[v] = i
	}
	dec := &Decomposition{Bags: make([][]int, g.n), Parent: make([]int, g.n)}
	// Bag index = elimination position, so parents can point by position.
	for i, v := range order {
		dec.Bags[i] = bagOf[v]
		dec.Parent[i] = -1
	}
	for i, v := range order {
		best := -1
		for _, u := range bagOf[v] {
			if u == v {
				continue
			}
			if pos[u] > i && (best == -1 || pos[u] < best) {
				best = pos[u]
			}
		}
		if best >= 0 {
			dec.Parent[i] = best
		}
	}
	// If several components produced several roots, chain the extra roots
	// under the last bag so the decomposition is a single tree (adding a bag
	// as a child never violates the conditions).
	rootIdx := -1
	for i := len(order) - 1; i >= 0; i-- {
		if dec.Parent[i] == -1 {
			if rootIdx == -1 {
				rootIdx = i
			} else {
				dec.Parent[i] = rootIdx
			}
		}
	}
	return dec
}

func pickVertex(g *Graph, eliminated []bool, h Heuristic) int {
	best := -1
	bestScore := 1 << 30
	for v := 0; v < g.n; v++ {
		if eliminated[v] {
			continue
		}
		var score int
		switch h {
		case MinDegree:
			score = liveDegree(g, eliminated, v)
		case MinFill:
			score = fillIn(g, eliminated, v)
		}
		if score < bestScore {
			bestScore = score
			best = v
		}
	}
	return best
}

func liveDegree(g *Graph, eliminated []bool, v int) int {
	d := 0
	for u := range g.adj[v] {
		if !eliminated[u] {
			d++
		}
	}
	return d
}

func fillIn(g *Graph, eliminated []bool, v int) int {
	var nbrs []int
	for u := range g.adj[v] {
		if !eliminated[u] {
			nbrs = append(nbrs, u)
		}
	}
	fill := 0
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !g.adj[nbrs[i]][nbrs[j]] {
				fill++
			}
		}
	}
	return fill
}

// WidthUpperBound returns min over both heuristics of the width of the
// computed decomposition -- an upper bound on tw(g).
func WidthUpperBound(g *Graph) int {
	a := Decompose(g, MinDegree).Width()
	b := Decompose(g, MinFill).Width()
	if b < a {
		return b
	}
	return a
}

// DataGraph builds the graph underlying a tree structure represented with
// the binary relations Child and NextSibling (the union of their symmetric
// closures), i.e. the graph of Figure 4 of the paper.  Vertex i is the node
// with preorder index i+1.
func DataGraph(t *tree.Tree) *Graph {
	g := NewGraph(t.Len())
	for _, u := range t.Nodes() {
		for _, v := range t.Children(u) {
			g.AddEdge(int(u), int(v))
		}
		if s := t.NextSibling(u); s != tree.InvalidNode {
			g.AddEdge(int(u), int(s))
		}
	}
	return g
}

// QueryGraph builds the graph of a conjunctive query (vertices = variables,
// edges = binary atoms) and returns it together with the variable order used
// for vertex numbering.
func QueryGraph(vars []string, edges [][2]string) (*Graph, []string) {
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	g := NewGraph(len(vars))
	for _, e := range edges {
		g.AddEdge(idx[e[0]], idx[e[1]])
	}
	return g, vars
}
