// Command benchjson converts `go test -bench` output into the machine-readable
// BENCH_*.json files that record the repository's performance trajectory, and
// compares two such files benchstat-style.
//
// Parse mode (default) reads benchmark output on stdin and writes JSON on
// stdout:
//
//	go test -bench . -benchmem -count 3 | benchjson -label pr6 > BENCH_6.json
//
// Each benchmark name maps to the median over its repeated runs (count > 1
// smooths scheduler noise without needing external tooling).
//
// Compare mode diffs two JSON files and prints a markdown table with the
// old/new ratio per benchmark; it always exits 0 (warn-only, no hard gate):
//
//	benchjson -compare BENCH_5.json BENCH_6.json
//
// Metrics mode scrapes a running treeqd's Prometheus /metrics endpoint and
// writes the server-side latency histograms as JSON — count, sum, and
// interpolated p50/p90/p99 per labelled series — so ci/bench_json.sh can
// record observed serving percentiles alongside the micro-benchmarks:
//
//	benchjson -metrics-url http://localhost:8080/v1/metrics > METRICS.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
)

// Result is the aggregated record for one benchmark.
type Result struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`      // number of -count repetitions seen
	Iters    int64   `json:"iters"`     // b.N of the median run
	NsOp     float64 `json:"ns_op"`     // median ns/op
	BOp      float64 `json:"b_op"`      // median B/op (-1 if -benchmem absent)
	AllocsOp float64 `json:"allocs_op"` // median allocs/op (-1 if absent)
}

// File is the on-disk shape of a BENCH_*.json file.
type File struct {
	Label      string   `json:"label"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	label := flag.String("label", "", "label stored in the output JSON (e.g. pr6)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files instead of parsing")
	metricsURL := flag.String("metrics-url", "", "scrape this Prometheus /metrics endpoint and emit histogram percentiles as JSON")
	flag.Parse()

	if *metricsURL != "" {
		if err := scrapeMetrics(*metricsURL, *label); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := parse(os.Stdin, *label); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// HistogramSummary is one labelled histogram series of a /metrics scrape,
// reduced to its count, sum, and interpolated percentiles (seconds).
type HistogramSummary struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Count  float64 `json:"count"`
	SumS   float64 `json:"sum_s"`
	P50S   float64 `json:"p50_s"`
	P90S   float64 `json:"p90_s"`
	P99S   float64 `json:"p99_s"`
}

// MetricsFile is the on-disk shape of a -metrics-url scrape.
type MetricsFile struct {
	Label      string             `json:"label,omitempty"`
	Source     string             `json:"source"`
	ScrapedAt  string             `json:"scraped_at"`
	Histograms []HistogramSummary `json:"histograms"`
}

// scrapeMetrics fetches the exposition, validates it with the same parser the
// CI promlint step uses, and emits every histogram family's per-series
// percentile summary as JSON on stdout.
func scrapeMetrics(url, label string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fams, err := obsv.ParseExposition(string(body))
	if err != nil {
		return fmt.Errorf("%s: malformed exposition: %w", url, err)
	}
	out := MetricsFile{Label: label, Source: url, ScrapedAt: time.Now().UTC().Format(time.RFC3339)}
	for _, fam := range fams {
		if fam.Type != obsv.TypeHistogram {
			continue
		}
		out.Histograms = append(out.Histograms, summarizeHistogram(fam)...)
	}
	sort.Slice(out.Histograms, func(i, j int) bool {
		if out.Histograms[i].Name != out.Histograms[j].Name {
			return out.Histograms[i].Name < out.Histograms[j].Name
		}
		return out.Histograms[i].Labels < out.Histograms[j].Labels
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// summarizeHistogram reduces one histogram family to per-series summaries.
func summarizeHistogram(fam *obsv.ExpoFamily) []HistogramSummary {
	type series struct {
		bounds []float64
		counts []float64
		sum    float64
		count  float64
	}
	bySeries := map[string]*series{}
	get := func(labels string) *series {
		s := bySeries[labels]
		if s == nil {
			s = &series{}
			bySeries[labels] = s
		}
		return s
	}
	for key, value := range fam.Samples {
		metric, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			metric, labels = key[:i], key[i+1:len(key)-1]
		}
		switch metric {
		case fam.Name + "_bucket":
			bound, rest := splitLE(labels)
			s := get(rest)
			s.bounds = append(s.bounds, bound)
			s.counts = append(s.counts, value)
		case fam.Name + "_sum":
			get(labels).sum = value
		case fam.Name + "_count":
			get(labels).count = value
		}
	}
	var out []HistogramSummary
	for labels, s := range bySeries {
		if s.count == 0 {
			continue
		}
		sort.Sort(&boundedSort{s.bounds, s.counts})
		out = append(out, HistogramSummary{
			Name:   fam.Name,
			Labels: labels,
			Count:  s.count,
			SumS:   s.sum,
			P50S:   percentile(s.bounds, s.counts, 0.50),
			P90S:   percentile(s.bounds, s.counts, 0.90),
			P99S:   percentile(s.bounds, s.counts, 0.99),
		})
	}
	return out
}

// splitLE pulls the le bound out of a bucket label set.
func splitLE(labels string) (float64, string) {
	parts := strings.Split(labels, ",")
	rest := make([]string, 0, len(parts))
	bound := math.Inf(1)
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			if text := p[4 : len(p)-1]; text != "+Inf" {
				bound, _ = strconv.ParseFloat(text, 64)
			}
			continue
		}
		rest = append(rest, p)
	}
	return bound, strings.Join(rest, ",")
}

// percentile interpolates the q-quantile from cumulative bucket counts, the
// same estimate Prometheus's histogram_quantile computes.  The +Inf bucket
// degrades to the highest finite bound (there is no upper edge to
// interpolate against).
func percentile(bounds, cumCounts []float64, q float64) float64 {
	if len(bounds) == 0 {
		return 0
	}
	total := cumCounts[len(cumCounts)-1]
	if total == 0 {
		return 0
	}
	rank := q * total
	for i, c := range cumCounts {
		if c < rank {
			continue
		}
		if math.IsInf(bounds[i], 1) {
			if i == 0 {
				return 0
			}
			return bounds[i-1]
		}
		lower, prevCount := 0.0, 0.0
		if i > 0 {
			lower, prevCount = bounds[i-1], cumCounts[i-1]
		}
		inBucket := c - prevCount
		if inBucket == 0 {
			return bounds[i]
		}
		return lower + (bounds[i]-lower)*(rank-prevCount)/inBucket
	}
	return bounds[len(bounds)-1]
}

type boundedSort struct {
	bounds []float64
	counts []float64
}

func (s *boundedSort) Len() int           { return len(s.bounds) }
func (s *boundedSort) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s *boundedSort) Swap(i, j int) {
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}

type sample struct {
	iters    int64
	nsOp     float64
	bOp      float64
	allocsOp float64
}

func parse(in *os.File, label string) error {
	out := File{Label: label}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		s := sample{bOp: -1, allocsOp: -1}
		s.iters, _ = strconv.ParseInt(m[2], 10, 64)
		s.nsOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			s.bOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			s.allocsOp, _ = strconv.ParseFloat(m[5], 64)
		}
		samples[m[1]] = append(samples[m[1]], s)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	for name, ss := range samples {
		sort.Slice(ss, func(i, j int) bool { return ss[i].nsOp < ss[j].nsOp })
		med := ss[len(ss)/2]
		out.Benchmarks = append(out.Benchmarks, Result{
			Name:     name,
			Runs:     len(ss),
			Iters:    med.iters,
			NsOp:     med.nsOp,
			BOp:      med.bOp,
			AllocsOp: med.allocsOp,
		})
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool { return out.Benchmarks[i].Name < out.Benchmarks[j].Name })
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func load(path string) (*File, map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]Result, len(f.Benchmarks))
	for _, r := range f.Benchmarks {
		byName[r.Name] = r
	}
	return &f, byName, nil
}

// compareFiles prints a markdown regression table.  A benchmark is flagged
// when ns/op grew by more than 10%; the process still exits 0 — the table is
// advisory until the trajectory has enough points to set a hard gate.
func compareFiles(oldPath, newPath string) error {
	oldF, oldBy, err := load(oldPath)
	if err != nil {
		return err
	}
	newF, newBy, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("### Benchmark comparison: `%s` (%s) vs `%s` (%s)\n\n",
		oldPath, oldF.Label, newPath, newF.Label)
	fmt.Println("| benchmark | old ns/op | new ns/op | ratio | old allocs/op | new allocs/op | status |")
	fmt.Println("|---|---:|---:|---:|---:|---:|---|")
	names := make([]string, 0, len(newBy))
	for name := range newBy {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		n := newBy[name]
		o, ok := oldBy[name]
		if !ok {
			fmt.Printf("| %s | – | %.0f | new | – | %.0f | ➕ new |\n", name, n.NsOp, n.AllocsOp)
			continue
		}
		ratio := n.NsOp / o.NsOp
		status := "ok"
		if ratio > 1.10 {
			status = "⚠ regression"
			regressions++
		} else if ratio < 0.90 {
			status = "🚀 faster"
		}
		fmt.Printf("| %s | %.0f | %.0f | %.2fx | %.0f | %.0f | %s |\n",
			name, o.NsOp, n.NsOp, ratio, o.AllocsOp, n.AllocsOp, status)
	}
	removed := 0
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			removed++
		}
	}
	fmt.Printf("\n%d benchmarks compared, %d flagged as regressions (warn-only), %d removed since %s.\n",
		len(names), regressions, removed, oldF.Label)
	return nil
}
