package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xmldoc"
)

// TestPutXMLDictLineageBesideOldReads runs PUTs that each bring a label no
// earlier version carried, beside readers that query versions the writer has
// already replaced.  Version v is <r><k/><nV/><k/></r>: three labels in use,
// so each PUT parses against its predecessor's dictionary and copies it to
// add nV, until the dictionary holds more than twice the three, when the next
// PUT starts a fresh one.  Under -race the run shows that no dictionary is
// written once a tree built on it is live; the readers check that every
// version they hold answers its own label, and no later version's.
func TestPutXMLDictLineageBesideOldReads(t *testing.T) {
	svc := New()
	doc := func(v uint64) string { return fmt.Sprintf("<r><k/><n%d/><k/></r>", v) }
	if _, created, err := svc.PutXML("d", doc(1)); err != nil || !created {
		t.Fatalf("create: created %v, %v", created, err)
	}
	const puts = 40
	done := make(chan struct{})
	resets := 0
	go func() {
		defer close(done)
		for v := uint64(2); v <= puts; v++ {
			prev, _, _ := svc.EngineVersion("d")
			o, created, err := svc.PutXML("d", doc(v))
			if err != nil || created || o.Version != v {
				t.Errorf("PUT version %d: version %d, created %v, %v", v, o.Version, created, err)
				return
			}
			cur, _, _ := svc.EngineVersion("d")
			if !cur.Document().Dict().Extends(prev.Document().Dict()) {
				resets++
			}
		}
	}()

	check := func(eng *core.Engine, v uint64) {
		own, _, err := eng.XPath(fmt.Sprintf("//n%d", v))
		if err != nil || len(own) != 1 {
			t.Errorf("version %d: //n%d = %v, %v; want one node", v, v, own, err)
		}
		later, _, err := eng.XPath(fmt.Sprintf("//n%d", v+1))
		if err != nil || len(later) != 0 {
			t.Errorf("version %d: //n%d = %v, %v; want none", v, v+1, later, err)
		}
		ks, _, err := eng.XPath("//k")
		if err != nil || len(ks) != 2 {
			t.Errorf("version %d: //k = %v, %v; want two nodes", v, ks, err)
		}
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type held struct {
				eng *core.Engine
				v   uint64
			}
			var old []held
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				eng, v, err := svc.EngineVersion("d")
				if err != nil {
					t.Error(err)
					return
				}
				check(eng, v)
				if len(old) < 8 {
					old = append(old, held{eng, v})
				}
				for _, h := range old {
					check(h.eng, h.v)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if resets == 0 {
		t.Errorf("%d PUTs of a new label each never started a fresh dictionary", puts-1)
	}
	eng, v, _ := svc.EngineVersion("d")
	check(eng, v)
	if d := eng.Document().Dict(); d.Len() > 7 {
		t.Errorf("the dictionary holds %d labels for a document using 3", d.Len())
	}
}

// TestPutXMLRejectsMalformedCharRef: a body the parser refuses — here a
// character reference with trailing bytes, which once parsed as "A" — is a
// *xmldoc.SyntaxError and leaves the document at its version.
func TestPutXMLRejectsMalformedCharRef(t *testing.T) {
	svc := New()
	if _, _, err := svc.PutXML("d", "<r><k>A</k></r>"); err != nil {
		t.Fatal(err)
	}
	_, _, err := svc.PutXML("d", "<r><k>&#65abc;</k></r>")
	var se *xmldoc.SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("PutXML(&#65abc;) = %v, want a *xmldoc.SyntaxError", err)
	}
	if _, v, err := svc.EngineVersion("d"); err != nil || v != 1 {
		t.Fatalf("version after a rejected PUT: %d, %v; want 1", v, err)
	}
}
