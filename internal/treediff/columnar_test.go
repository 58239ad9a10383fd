package treediff

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
	"repro/internal/workload"
)

// diffReference is Diff as it was before the column compare: the common
// prefix and suffix are found node by node, through LabelCodes, Text and
// Parent.  It is the reference the columnar Diff is held to, field by field.
func diffReference(oldT, newT *tree.Tree) (*Script, bool) {
	if oldT == nil || newT == nil {
		return nil, false
	}
	n, m := oldT.Len(), newT.Len()
	c := newComparer(oldT, newT)
	p := 0
	for p < n && p < m {
		u := tree.NodeID(p)
		if !c.same(u, u) || oldT.Parent(u) != newT.Parent(u) {
			break
		}
		p++
	}
	if p == n && n == m {
		return &Script{Old: oldT, New: newT, Kind: KindNone, Start: n, ShapePreserving: true}, true
	}
	if n == m {
		structural := true
		for i := 0; i < n; i++ {
			if oldT.Parent(tree.NodeID(i)) != newT.Parent(tree.NodeID(i)) {
				structural = false
				break
			}
		}
		if structural {
			last := n - 1
			for last >= p && c.same(tree.NodeID(last), tree.NodeID(last)) {
				last--
			}
			sc := &Script{
				Old: oldT, New: newT, Kind: KindRelabel,
				Start: p, OldLen: last + 1 - p, NewLen: last + 1 - p,
				ShapePreserving: true,
			}
			sc.Touched = c.relabeled(p, sc.OldLen)
			return sc, true
		}
	}
	s := 0
	for s < n-p && s < m-p {
		if !c.same(tree.NodeID(n-1-s), tree.NodeID(m-1-s)) {
			break
		}
		s++
	}
	oldLen, newLen := n-p-s, m-p-s
	delta := newLen - oldLen
	for i := p + oldLen; i < n; i++ {
		po := oldT.Parent(tree.NodeID(i))
		pn := newT.Parent(tree.NodeID(i + delta))
		switch {
		case int(po) < p:
			if pn != po {
				return nil, false
			}
		case int(po) >= p+oldLen:
			if int(pn) != int(po)+delta {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	parOld, okOld := regionParentRef(oldT, p, oldLen)
	if !okOld {
		return nil, false
	}
	parNew, okNew := regionParentRef(newT, p, newLen)
	if !okNew {
		return nil, false
	}
	if oldLen > 0 && newLen > 0 && parOld != parNew {
		return nil, false
	}
	sc := &Script{Old: oldT, New: newT, Start: p, OldLen: oldLen, NewLen: newLen}
	sc.Touched = c.regionLabels(p, oldLen, newLen)
	switch {
	case oldLen == 0 && newLen == 0:
		sc.Kind, sc.ShapePreserving = KindNone, true
	case oldLen == 0:
		sc.Kind = KindInsert
	case newLen == 0:
		sc.Kind = KindDelete
	default:
		sc.Kind = KindReplace
	}
	return sc, true
}

func regionParentRef(t *tree.Tree, start, length int) (tree.NodeID, bool) {
	par := tree.NodeID(-2)
	for i := start; i < start+length; i++ {
		q := t.Parent(tree.NodeID(i))
		if int(q) >= start {
			continue
		}
		if par == -2 {
			par = q
		} else if par != q {
			return tree.InvalidNode, false
		}
	}
	if par == -2 {
		par = tree.InvalidNode
	}
	return par, true
}

// fnode is a tree under edit: labels, text and children.
type fnode struct {
	labels []string
	text   string
	kids   []*fnode
}

func (n *fnode) clone() *fnode {
	c := &fnode{labels: append([]string(nil), n.labels...), text: n.text}
	for _, k := range n.kids {
		c.kids = append(c.kids, k.clone())
	}
	return c
}

// nodes returns the nodes of the subtree in preorder.
func (n *fnode) nodes(out []*fnode) []*fnode {
	out = append(out, n)
	for _, k := range n.kids {
		out = k.nodes(out)
	}
	return out
}

// byteStream hands out the fuzz input a byte at a time, zeros once spent.
type byteStream struct{ data []byte }

func (s *byteStream) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

var fuzzLabels = []string{"a", "b", "c", "item", "keyword", "@id=1", "@id=2"}

// grow builds a random subtree of at most budget nodes from s; every third
// or so node carries text, an internal one included (mixed content).
func grow(s *byteStream, budget *int, depth int) *fnode {
	x := s.next()
	n := &fnode{labels: []string{fuzzLabels[x%5]}}
	if x&0x20 != 0 {
		n.labels = append(n.labels, fuzzLabels[5+x%2])
	}
	if x&0x40 != 0 {
		n.text = fmt.Sprintf("text %d of a node", x%7)
	}
	*budget--
	for kids := s.next() % 4; kids > 0 && *budget > 0 && depth < 6; kids-- {
		n.kids = append(n.kids, grow(s, budget, depth+1))
	}
	return n
}

// edit applies one edit chosen by s to root: a relabel, a text change, an
// insert or a delete of a child at the first, a middle or the last
// position, or nothing.
func edit(s *byteStream, root *fnode) {
	all := root.nodes(nil)
	v := all[s.next()%len(all)]
	switch op := s.next() % 6; op {
	case 0:
		v.labels = []string{fuzzLabels[s.next()%len(fuzzLabels)]}
	case 1:
		v.text = []string{"", "t1", "new text", "t1t1"}[s.next()%4]
	case 2, 3:
		at := []int{0, len(v.kids) / 2, len(v.kids)}[s.next()%3]
		budget := 1 + s.next()%4
		sub := grow(s, &budget, 4)
		v.kids = append(v.kids[:at], append([]*fnode{sub}, v.kids[at:]...)...)
	case 4:
		if len(v.kids) > 0 {
			at := []int{0, len(v.kids) / 2, len(v.kids) - 1}[s.next()%3]
			v.kids = append(v.kids[:at], v.kids[at+1:]...)
		}
	}
}

// build makes the tree of root: through a Preorder or a Builder, against
// the dictionary d (nil: a fresh one).
func build(root *fnode, d *tree.Dict, preorder bool) *tree.Tree {
	if preorder {
		var p tree.Preorder
		p.Init(d, 1, 1, 0)
		var walk func(n *fnode)
		walk = func(n *fnode) {
			p.Start(p.Code(n.labels[0]))
			for _, l := range n.labels[1:] {
				p.AddCode(p.Code(l))
			}
			// Mixed content: half the text before the children, half after.
			p.AppendText(n.text[:len(n.text)/2])
			for _, k := range n.kids {
				walk(k)
			}
			p.AppendText(n.text[len(n.text)/2:])
			p.End()
		}
		walk(root)
		t, err := p.Build()
		if err != nil {
			panic(err)
		}
		return t
	}
	b := tree.NewBuilderDict(d)
	var walk func(n *fnode, parent tree.NodeID)
	walk = func(n *fnode, parent tree.NodeID) {
		id := b.AddCoded(parent)
		for _, l := range n.labels {
			b.AddCode(id, b.Code(l))
		}
		b.SetText(id, n.text)
		for _, k := range n.kids {
			walk(k, id)
		}
	}
	walk(root, tree.InvalidNode)
	return b.MustBuild()
}

// FuzzDiffColumnar: Diff, which compares the trees' columns in bulk, returns
// exactly what the node-by-node reference returns — ok, and every field of
// the Script — on a random tree and a revision of it after a few random
// edits, built against the first tree's dictionary or a fresh one (whose
// codes differ, so the comparison translates them).
func FuzzDiffColumnar(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{3, 3, 1, 2, 0x61, 2, 0x25, 0, 7, 1, 0, 0}, byte(1))
	f.Add([]byte{0x41, 3, 2, 2, 0x60, 1, 1, 0, 0x22, 0, 9, 2, 2, 1, 3, 1}, byte(2))
	f.Add([]byte{2, 2, 0x45, 3, 3, 0, 4, 0, 5, 0, 4, 1, 8, 3, 0, 12, 4, 2}, byte(7))
	f.Add([]byte(strings.Repeat("\x03\x02\x61", 40)+"\x05\x02\x02\x03\x09\x04\x01"), byte(5))
	f.Fuzz(func(t *testing.T, data []byte, mode byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		s := &byteStream{data: data}
		budget := 1 + s.next()
		root := grow(s, &budget, 0)
		old := build(root, nil, mode&1 != 0)
		rev := root.clone()
		for edits := int(mode>>1) % 3; edits >= 0; edits-- {
			edit(s, rev)
		}
		var d *tree.Dict
		if mode&8 == 0 {
			d = old.Dict()
		}
		new := build(rev, d, mode&16 != 0)
		got, gotOK := Diff(old, new)
		want, wantOK := diffReference(old, new)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Diff = %+v, %v; node by node %+v, %v\nold %s\nnew %s",
				got, gotOK, want, wantOK, Canonical(old), Canonical(new))
		}
	})
}

// model returns the subtree of t at v as an fnode.
func model(t *tree.Tree, v tree.NodeID) *fnode {
	n := &fnode{labels: t.Labels(v), text: t.Text(v)}
	for _, c := range t.Children(v) {
		n.kids = append(n.kids, model(t, c))
	}
	return n
}

// TestDiffColumnarOnSiteDocument holds Diff to the node-by-node reference on
// a 400-item site document, whose columns span many compare blocks, under
// each edit kind at the document's start, middle and end, against the old
// dictionary and a fresh one.
func TestDiffColumnarOnSiteDocument(t *testing.T) {
	site := workload.SiteDocument(workload.DocSpec{Items: 400, Regions: 6, DescriptionDepth: 2, Seed: 1})
	old := build(model(site, site.Root()), nil, true)
	edits := map[string]func(root *fnode, at []*fnode){
		"text":     func(_ *fnode, at []*fnode) { at[0].text += " edited" },
		"relabel":  func(_ *fnode, at []*fnode) { at[0].labels = []string{"renamed"} },
		"insert":   func(_ *fnode, at []*fnode) { at[1].kids = append(at[1].kids, &fnode{labels: []string{"new"}}) },
		"delete":   func(_ *fnode, at []*fnode) { at[1].kids = at[1].kids[:len(at[1].kids)-1] },
		"none":     func(*fnode, []*fnode) {},
		"two-ends": func(root *fnode, at []*fnode) { root.text = "x"; at[0].text = "y" },
	}
	for name, apply := range edits {
		for _, where := range []float64{0.01, 0.5, 0.99} {
			for _, fresh := range []bool{false, true} {
				rev := model(old, old.Root())
				all := rev.nodes(nil)
				var parents []*fnode
				for _, n := range all {
					if len(n.kids) > 0 {
						parents = append(parents, n)
					}
				}
				apply(rev, []*fnode{all[int(where*float64(len(all)-1))], parents[int(where*float64(len(parents)-1))]})
				d := old.Dict()
				if fresh {
					d = nil
				}
				new := build(rev, d, true)
				got, gotOK := Diff(old, new)
				want, wantOK := diffReference(old, new)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Errorf("%s at %.2f (fresh dictionary %v): Diff = %+v, %v; node by node %+v, %v", name, where, fresh, got, gotOK, want, wantOK)
				}
			}
		}
	}
}
