// Package obsv is the zero-dependency observability layer of the system: a
// small metrics core (atomic counters, scrape-time gauges, fixed-bucket
// latency histograms) with a Prometheus text-exposition writer, per-request
// tracing (request IDs and per-stage spans carried in a context.Context), and
// the unified snapshot of the process-wide allocation pools.
//
// The package deliberately reimplements the tiny slice of the Prometheus
// client library the server needs — counter/gauge/histogram families with
// labels, `# HELP`/`# TYPE` exposition — because the repository takes no
// external dependencies.  The exposition format is the stable text format
// (version 0.0.4) that every Prometheus scraper understands; ValidateExposition
// in this package checks conformance and is what the CI promlint step runs.
//
// Everything here is safe for concurrent use: observation paths are atomic
// (one atomic add per counter increment, one per histogram bucket), and a
// scrape never blocks an observer — a scrape racing an Observe may see the
// bucket count without the sum update, which Prometheus semantics permit
// (both are monotone and converge by the next scrape).
package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric family types, as exposed in `# TYPE` lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DurationBuckets are the default histogram buckets for latency metrics:
// exponential, factor 4, spanning 100ns to ~27s, in seconds.  The span covers
// everything from a warm plan-cache hit (sub-microsecond) to a request that
// exhausts the server's 60s maximum timeout (landing in +Inf).
var DurationBuckets = []float64{
	100e-9, 400e-9, 1.6e-6, 6.4e-6, 25.6e-6, 102.4e-6,
	409.6e-6, 1.6384e-3, 6.5536e-3, 2.62144e-2,
	0.1048576, 0.4194304, 1.6777216, 6.7108864, 26.8435456,
}

// CountBuckets are histogram buckets for small cardinalities (documents in a
// fan-out, results in a response): powers of two from 1 to 4096.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Emit is the callback handed to scrape-time collectors: it records one
// sample with the family's label values (which must match the family's label
// names in number and order).
type Emit func(value float64, labelValues ...string)

// family is one registered metric family: a name, help, type, label names,
// and either live children (counters/histograms observed on the hot path) or
// a scrape-time collect function (gauges derived from existing Stats
// plumbing).
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]*child // key: label values joined by \xff
	order    []string          // insertion order of keys, sorted at scrape

	collect func(Emit) // scrape-time families; nil for live families
}

// child is one labelled instance of a live family.
type child struct {
	labelValues []string
	count       atomic.Uint64 // counters
	// histograms: one overflow bucket at the end for +Inf
	bucketCounts []atomic.Uint64
	sumBits      atomic.Uint64 // float64 bits of the running sum
}

// Registry holds metric families and writes them in Prometheus text format.
// Construct with NewRegistry; a nil *Registry is safe to register on and
// observe against (every method no-ops), so instrumented layers need no
// "metrics enabled?" branches.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnScrape registers fn to run at the start of every WritePrometheus call,
// before any collect function.  Layers that derive many gauge families from
// one expensive snapshot (service.Stats walks every engine) register a single
// snapshot refresh here and let the per-family collectors read the cached
// copy, so a scrape pays the walk once rather than once per family.
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// labelAllowlist is the closed set of label names a family may carry, each
// known to take few values: handler, route, lang, outcome and code enumerate
// small static sets, pool, phase, mode and bound engine internals, and scope
// where a panic was recovered.  A label whose values come from input (a
// request ID, a document name) would grow the exposition without bound, so
// adding one means extending this list, in review.
var labelAllowlist = map[string]bool{
	"handler": true, "code": true, "lang": true, "route": true, "outcome": true,
	"mode": true, "phase": true, "pool": true, "bound": true, "scope": true,
}

// maxLabels caps the labels of one family; treeqd_query_duration_seconds
// {lang,route,outcome} is the widest.
const maxLabels = 3

// register adds f to the registry.  It panics, naming the family and the
// rule, on a family that breaks the naming rules: a valid name with the
// treeqd_ prefix, ending in _total exactly when it is a counter, non-empty
// help, and at most maxLabels labels from labelAllowlist.  Every family
// registers at server construction, so a bad name stops treeqd at start and
// fails every test that builds a server.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bad := func(rule string) { panic(fmt.Sprintf("obsv: metric family %q: %s", f.name, rule)) }
	if _, ok := r.byName[f.name]; ok {
		bad("duplicate family")
	}
	switch {
	case !validMetricName(f.name):
		bad("invalid metric name")
	case !strings.HasPrefix(f.name, "treeqd_"):
		bad("lacks the treeqd_ prefix")
	case f.typ == TypeCounter && !strings.HasSuffix(f.name, "_total"):
		bad("counter must end in _total")
	case f.typ != TypeCounter && strings.HasSuffix(f.name, "_total"):
		bad("_total suffix on a " + f.typ)
	case f.help == "":
		bad("empty help text")
	case len(f.labels) > maxLabels:
		bad(fmt.Sprintf("%d labels, at most %d", len(f.labels), maxLabels))
	}
	for _, l := range f.labels {
		if !labelAllowlist[l] {
			bad(fmt.Sprintf("label %q is not in the allowlist", l))
		}
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// RegisterFunc registers a scrape-time family: collect is called on every
// scrape and emits the family's current samples.  typ is TypeCounter or
// TypeGauge — this is how the existing Stats counters (plan cache, pair
// cache, pools, corpus size) surface without double bookkeeping.
func (r *Registry) RegisterFunc(name, typ, help string, labelNames []string, collect func(Emit)) {
	if r == nil {
		return
	}
	r.register(&family{name: name, help: help, typ: typ, labels: labelNames, collect: collect})
}

// CounterVec is a live counter family with labels.
type CounterVec struct{ f *family }

// NewCounterVec registers a counter family observed on the hot path.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	f := &family{name: name, help: help, typ: TypeCounter, labels: labelNames, children: map[string]*child{}}
	r.register(f)
	return &CounterVec{f: f}
}

// Counter is one labelled counter.  A nil Counter ignores Add/Inc.
type Counter struct{ c *child }

// With returns the counter for the given label values, creating it on first
// use.  Safe for concurrent use; the returned Counter may be cached by the
// caller to skip the lookup on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{c: v.f.child(labelValues)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must be >= 0: counters are monotone).
func (c *Counter) Add(n uint64) {
	if c == nil || c.c == nil {
		return
	}
	c.c.count.Add(n)
}

// HistogramVec is a live histogram family with labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a histogram family with the given bucket upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: histogram %q buckets not ascending", name))
		}
	}
	f := &family{
		name: name, help: help, typ: TypeHistogram, labels: labelNames,
		buckets: append([]float64(nil), buckets...), children: map[string]*child{},
	}
	r.register(f)
	return &HistogramVec{f: f}
}

// Histogram is one labelled histogram.  A nil Histogram ignores observations.
type Histogram struct {
	c       *child
	buckets []float64
}

// With returns the histogram for the given label values, creating it on first
// use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if v == nil {
		return nil
	}
	return &Histogram{c: v.f.child(labelValues), buckets: v.f.buckets}
}

// Observe records one sample.
func (h *Histogram) Observe(value float64) {
	if h == nil || h.c == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, value) // first bucket with bound >= value
	h.c.bucketCounts[i].Add(1)
	for {
		old := h.c.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + value)
		if h.c.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// child finds or creates the labelled child, validating the label cardinality.
func (f *family) child(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obsv: family %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &child{labelValues: append([]string(nil), labelValues...)}
	if f.typ == TypeHistogram {
		c.bucketCounts = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// WritePrometheus writes every registered family in the Prometheus text
// exposition format (version 0.0.4): `# HELP` and `# TYPE` lines followed by
// the family's samples, children in sorted label order so equal states
// produce byte-identical scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	hooks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	var b strings.Builder
	for _, f := range families {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			f.writeCollected(&b)
		} else {
			f.writeChildren(&b)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeCollected runs the scrape-time collector, buffering and sorting its
// samples for deterministic output.
func (f *family) writeCollected(b *strings.Builder) {
	type sample struct {
		labels string
		value  float64
	}
	var samples []sample
	f.collect(func(value float64, labelValues ...string) {
		if len(labelValues) != len(f.labels) {
			panic(fmt.Sprintf("obsv: family %q collector emitted %d label values, want %d", f.name, len(labelValues), len(f.labels)))
		}
		samples = append(samples, sample{labels: formatLabels(f.labels, labelValues, "", 0), value: value})
	})
	sort.Slice(samples, func(i, j int) bool { return samples[i].labels < samples[j].labels })
	for _, s := range samples {
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatValue(s.value))
	}
}

// writeChildren writes the live children (counters or histograms).
func (f *family) writeChildren(b *strings.Builder) {
	f.mu.RLock()
	keys := append([]string(nil), f.order...)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	sort.Sort(&childSort{keys, children})
	for _, c := range children {
		switch f.typ {
		case TypeHistogram:
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += c.bucketCounts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					formatLabels(f.labels, c.labelValues, "le", bound), cum)
			}
			cum += c.bucketCounts[len(f.buckets)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				formatLabels(f.labels, c.labelValues, "le", math.Inf(1)), cum)
			sum := math.Float64frombits(c.sumBits.Load())
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, formatLabels(f.labels, c.labelValues, "", 0), formatValue(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, formatLabels(f.labels, c.labelValues, "", 0), cum)
		default:
			fmt.Fprintf(b, "%s%s %d\n", f.name, formatLabels(f.labels, c.labelValues, "", 0), c.count.Load())
		}
	}
}

type childSort struct {
	keys     []string
	children []*child
}

func (s *childSort) Len() int           { return len(s.keys) }
func (s *childSort) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *childSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.children[i], s.children[j] = s.children[j], s.children[i]
}

// formatLabels renders {k="v",...}; with le != "" a histogram le label is
// appended.  Returns "" for a label-free sample.
func formatLabels(names, values []string, le string, leBound float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		if math.IsInf(leBound, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatValue(leBound))
		}
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false // le is reserved for histogram buckets
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
