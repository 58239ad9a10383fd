package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/tree"
	"repro/internal/treediff"
	"repro/internal/xmldoc"
)

// Update phases, in execution order.  Every UpdateDoc call times each phase it
// performs and accumulates the wall time into Service.updPhaseNanos (exported
// by UpdatePhaseTotals and, when WithMetrics was given, observed on the
// treeqd_update_duration_seconds{phase} histogram).
const (
	updPhaseDiff  = iota // treediff.Diff of old vs new document
	updPhasePatch        // index splice (only on the patch path)
	updPhaseBuild        // full engine rebuild (only on the rebuild path)
	updPhaseSwap         // corpus entry swap under the corpus lock
	updPhaseCount
)

// updPhaseNames names the phases for UpdatePhaseTotals and the metrics layer,
// indexed by the updPhase* constants.
var updPhaseNames = [updPhaseCount]string{"diff", "patch", "build", "swap"}

// UpdateOutcome reports how UpdateDoc replaced a document.
type UpdateOutcome struct {
	// Version is the document's new version number.
	Version uint64
	// Patched reports whether the new engine's index was spliced from the old
	// one (true) or rebuilt from scratch (false).
	Patched bool
	// Kind is the edit classification: the diff kind ("relabel", "insert",
	// "delete", "replace") when the update was patched, "rebuild" otherwise.
	Kind string
	// PlansCarried counts the cached plans carried across the write: all of
	// them, since no plan reads the document it runs on.
	PlansCarried int
	// PlansSkipped counts the carried plans whose label set was disjoint from
	// the edit's touched labels under a shape-preserving patch: the write
	// cannot have changed their answers, and every index artifact they read
	// was carried across it.  The count says how much of the write was
	// invisible to the warm queries.  An edit of text alone touches no label,
	// so it skips every plan that reports a label set: PlansSkipped ==
	// PlansCarried unless a route could not bound its labels.
	PlansSkipped int
}

// Mode renders the outcome for logs and the CLI: "patched" or "rebuilt".
func (o UpdateOutcome) Mode() string {
	if o.Patched {
		return "patched"
	}
	return "rebuilt"
}

// phaseTimer accumulates one UpdateDoc call's per-phase wall times and flushes
// them into the service counters (and histogram) in one place, so early error
// returns never leave a phase half-recorded.
type phaseTimer struct {
	s *Service
	d [updPhaseCount]time.Duration
}

func (pt *phaseTimer) time(phase int, f func()) {
	start := time.Now()
	f()
	pt.d[phase] += time.Since(start)
}

func (pt *phaseTimer) flush() {
	for i, d := range pt.d {
		if d <= 0 {
			continue
		}
		pt.s.updPhaseNanos[i].Add(int64(d))
		if pt.s.updDur != nil {
			pt.s.updDur.With(updPhaseNames[i]).ObserveDuration(d)
		}
	}
}

// patchable decides whether the diff qualifies for the splice path: patching
// must be enabled (patch ratio > 0), the diff must have found a single-splice
// edit, and the edit region must be small relative to the documents — at most
// ratio * max(|old|, |new|) nodes on both sides (with a floor of one node, so
// single-node edits on tiny documents still patch).  Large edits fall back to
// a full rebuild, where the O(|D|) build cost is already proportionate.
func (s *Service) patchable(sc *treediff.Script, oldN, newN int) bool {
	if s.patchRatio <= 0 {
		return false
	}
	max := oldN
	if newN > max {
		max = newN
	}
	limit := int(s.patchRatio * float64(max))
	if limit < 1 {
		limit = 1
	}
	return sc.OldLen <= limit && sc.NewLen <= limit
}

// labelsDisjoint reports whether a plan's sorted label set shares no label
// with the diff's sorted touched-label set.  A nil label set means the route
// could not bound the labels the plan depends on (wildcard-only queries report
// an empty, non-nil set), so nil conservatively intersects everything.
func labelsDisjoint(labels, touched []string) bool {
	if labels == nil {
		return false
	}
	i, j := 0, 0
	for i < len(labels) && j < len(touched) {
		switch {
		case labels[i] == touched[j]:
			return false
		case labels[i] < touched[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// UpdateDoc replaces the named document with doc under a bumped version
// number and reports how: it diffs the old and new trees (treediff.Diff), and
// when the edit is one small splice it derives the new engine by patching the
// old one's index in place of a rebuild (core.Engine.Patched) — label caches
// for untouched labels carry over, and only the touched labels start cold.
// Diffs that are not a single splice, or whose edit region exceeds the patch
// ratio (WithPatchRatio), rebuild the engine from scratch.  Then the new
// engine is swapped in.
//
// Nothing is compiled: every cached plan reads no document and serves the new
// revision as it is.  The outcome counts them, and under a shape-preserving
// patch also the plans whose label set (core.Compiled.Labels) is disjoint
// from the edit's touched labels: the edit cannot have changed their
// answers.  The touched labels are those whose extension the edit can have
// changed (treediff.Script.Touched), so a write that only rewrites text —
// which no evaluator reads — skips every plan, whichever labels the edited
// nodes carry.
//
// Concurrency: the patch reads only immutable inputs (the old entry's engine
// and the two trees), so a concurrent UpdateDoc that swapped a different
// engine in between our snapshot and our swap does not invalidate the patched
// engine — both candidates are correct for their target tree, and the last
// writer wins the slot, same as with full rebuilds.  It returns
// ErrUnknownDocument when the name is not in the corpus (UpdateDoc never
// creates a document: a racing Remove wins).
func (s *Service) UpdateDoc(name string, doc *tree.Tree) (UpdateOutcome, error) {
	cur, err := s.entry(name)
	if err != nil {
		return UpdateOutcome{}, err
	}

	pt := phaseTimer{s: s}
	defer pt.flush()

	var sc *treediff.Script
	var diffOK bool
	pt.time(updPhaseDiff, func() {
		sc, diffOK = treediff.Diff(cur.eng.Document(), doc)
	})

	var out UpdateOutcome
	var newEng *core.Engine
	if diffOK && s.patchable(sc, cur.eng.Document().Len(), doc.Len()) {
		pt.time(updPhasePatch, func() {
			newEng = cur.eng.Patched(doc, index.PatchSpec{
				Start:           sc.Start,
				OldLen:          sc.OldLen,
				NewLen:          sc.NewLen,
				Touched:         sc.Touched,
				ShapePreserving: sc.ShapePreserving,
			})
		})
		out.Patched = true
		out.Kind = sc.Kind.String()
	} else {
		pt.time(updPhaseBuild, func() {
			newEng = core.New(doc, s.engineOpts...)
		})
		out.Kind = "rebuild"
	}

	var old *core.Engine
	pt.time(updPhaseSwap, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if cur, ok := s.docs[name]; ok {
			old = cur.eng
			out.Version = cur.version + 1
			s.docs[name] = &docEntry{eng: newEng, version: out.Version}
		}
	})
	if old == nil {
		return UpdateOutcome{}, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}

	s.updates.Add(1)
	if out.Patched {
		s.patchedUpdates.Add(1)
	} else {
		s.rebuildUpdates.Add(1)
	}
	skippable := out.Patched && sc.ShapePreserving
	s.planMu.Lock()
	s.plans.Each(func(_ planKey, c *core.Compiled) bool {
		out.PlansCarried++
		if skippable && labelsDisjoint(c.Labels(), sc.Touched) {
			out.PlansSkipped++
		}
		return true
	})
	s.planMu.Unlock()
	s.plansCarried.Add(uint64(out.PlansCarried))
	s.planLabelSkips.Add(uint64(out.PlansSkipped))
	// The swapped-out engine stops pinning its index; in-flight readers that
	// already hold it finish correctly (artifacts rebuild on demand).
	old.Release()
	return out, nil
}

// UpdateDocXML parses src against the named document's label dictionary and
// updates the document with the result, returning the full outcome report
// (see UpdateDoc).
func (s *Service) UpdateDocXML(name, src string) (UpdateOutcome, error) {
	cur, err := s.entry(name)
	if err != nil {
		return UpdateOutcome{}, err
	}
	doc, err := parseAfter(name, src, cur)
	if err != nil {
		return UpdateOutcome{}, err
	}
	return s.UpdateDoc(name, doc)
}

// PutXML is the write path of a PUT: it parses src and adds the result
// under name at version 1 (created is true), or, when name is live, updates
// the document with it (see UpdateDoc).  An update's src is parsed against
// the live version's label dictionary (tree.Tree.NextDict), so the labels the
// two versions share keep their codes: parsing them allocates nothing, and
// the diff and the index splice compare and carry them by code.  A src that
// does not parse returns the *xmldoc.SyntaxError, or xmldoc.ErrTooDeep,
// wrapped, and changes nothing.
func (s *Service) PutXML(name, src string) (out UpdateOutcome, created bool, err error) {
	// Only ErrUnknownDocument can fail the lookup: a new name, whose
	// document starts a dictionary of its own (cur is nil).
	cur, _ := s.entry(name)
	doc, err := parseAfter(name, src, cur)
	if err != nil {
		return UpdateOutcome{}, false, err
	}
	if cur == nil {
		err := s.Add(name, doc)
		if err == nil {
			return UpdateOutcome{Version: 1}, true, nil
		}
		if !errors.Is(err, ErrDuplicateDocument) {
			return UpdateOutcome{}, false, err
		}
		// A concurrent PUT added the name first: update its version.
	}
	out, err = s.UpdateDoc(name, doc)
	return out, false, err
}

// parseAfter parses src as the successor of the entry cur (nil for none).
func parseAfter(name, src string, cur *docEntry) (*tree.Tree, error) {
	var d *tree.Dict
	if cur != nil {
		d = cur.eng.Document().NextDict()
	}
	doc, err := xmldoc.ParseDict(src, d)
	if err != nil {
		return nil, fmt.Errorf("service: document %q: %w", name, err)
	}
	return doc, nil
}

// UpdatePhaseTotals returns the cumulative wall time spent in each update
// phase ("diff", "patch", "build", "swap") across every UpdateDoc
// call so far — the /statusz view of where update latency goes.
func (s *Service) UpdatePhaseTotals() map[string]time.Duration {
	out := make(map[string]time.Duration, updPhaseCount)
	for i := range updPhaseNames {
		out[updPhaseNames[i]] = time.Duration(s.updPhaseNanos[i].Load())
	}
	return out
}
