package cq

import (
	"fmt"
	"math/rand"

	"repro/internal/tree"
)

// GenSpec parameterizes the random query generators.
type GenSpec struct {
	// Vars is the number of variables.
	Vars int
	// Alphabet is the label alphabet to draw label atoms from (may be empty
	// for label-free queries).
	Alphabet []string
	// LabelProb is the probability that a variable gets a label atom.
	LabelProb float64
	// Axes is the set of axes to draw binary atoms from; defaults to
	// {Child, Child+}.
	Axes []tree.Axis
	// ExtraEdges adds this many additional binary atoms beyond the spanning
	// tree (0 keeps the query acyclic; > 0 generally creates cycles).
	ExtraEdges int
	// HeadVars is the number of free variables (clamped to Vars).
	HeadVars int
	// Seed makes generation deterministic.
	Seed int64
}

func (s *GenSpec) normalize() {
	if s.Vars < 1 {
		s.Vars = 1
	}
	if len(s.Axes) == 0 {
		s.Axes = []tree.Axis{tree.Child, tree.Descendant}
	}
	if s.HeadVars > s.Vars {
		s.HeadVars = s.Vars
	}
	if s.HeadVars < 0 {
		s.HeadVars = 0
	}
}

func varName(i int) Variable { return Variable(fmt.Sprintf("x%d", i)) }

// RandomTwig generates a random tree-shaped ("twig") query: the binary atoms
// form a tree over the variables rooted at x0, so the query is acyclic and
// connected.  With ExtraEdges > 0 additional random atoms are added, which
// usually makes the query cyclic.
func RandomTwig(spec GenSpec) *Query {
	spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed))
	q := &Query{}
	for i := 1; i < spec.Vars; i++ {
		parent := rng.Intn(i)
		axis := spec.Axes[rng.Intn(len(spec.Axes))]
		q.Axes = append(q.Axes, AxisAtom{Axis: axis, From: varName(parent), To: varName(i)})
	}
	for e := 0; e < spec.ExtraEdges && spec.Vars >= 2; e++ {
		a := rng.Intn(spec.Vars)
		b := rng.Intn(spec.Vars)
		for b == a {
			b = rng.Intn(spec.Vars)
		}
		axis := spec.Axes[rng.Intn(len(spec.Axes))]
		q.Axes = append(q.Axes, AxisAtom{Axis: axis, From: varName(a), To: varName(b)})
	}
	for i := 0; i < spec.Vars; i++ {
		if len(spec.Alphabet) > 0 && rng.Float64() < spec.LabelProb {
			q.Labels = append(q.Labels, LabelAtom{Var: varName(i), Label: spec.Alphabet[rng.Intn(len(spec.Alphabet))]})
		}
	}
	if spec.Vars == 1 && len(q.Labels) == 0 {
		// Guarantee the single variable occurs in the body so the query is safe.
		lbl := "a"
		if len(spec.Alphabet) > 0 {
			lbl = spec.Alphabet[0]
		}
		q.Labels = append(q.Labels, LabelAtom{Var: varName(0), Label: lbl})
	}
	for i := 0; i < spec.HeadVars; i++ {
		q.Head = append(q.Head, varName(i))
	}
	return q
}

// RandomPath generates a path-shaped query x0 -axis- x1 -axis- ... -axis- xk,
// the shape processed by the PathStack algorithm of the holistic twig join
// literature ([13] in the paper).
func RandomPath(spec GenSpec) *Query {
	spec.normalize()
	rng := rand.New(rand.NewSource(spec.Seed))
	q := &Query{}
	for i := 1; i < spec.Vars; i++ {
		axis := spec.Axes[rng.Intn(len(spec.Axes))]
		q.Axes = append(q.Axes, AxisAtom{Axis: axis, From: varName(i - 1), To: varName(i)})
	}
	for i := 0; i < spec.Vars; i++ {
		if len(spec.Alphabet) > 0 && rng.Float64() < spec.LabelProb {
			q.Labels = append(q.Labels, LabelAtom{Var: varName(i), Label: spec.Alphabet[rng.Intn(len(spec.Alphabet))]})
		}
	}
	if spec.Vars == 1 && len(q.Labels) == 0 {
		lbl := "a"
		if len(spec.Alphabet) > 0 {
			lbl = spec.Alphabet[0]
		}
		q.Labels = append(q.Labels, LabelAtom{Var: varName(0), Label: lbl})
	}
	for i := 0; i < spec.HeadVars; i++ {
		q.Head = append(q.Head, varName(i))
	}
	return q
}
