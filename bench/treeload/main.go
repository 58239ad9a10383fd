// Command treeload is the treeqd benchmark: it starts a real treeqd as a
// separate process, loads a seeded corpus over HTTP, drives it with a closed
// loop of clients and checks every answer against an in-process oracle.  With
// -trace 1 it instead times calls into each layer's public functions and
// reports the per-layer metrics.  See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	coldStarts = 5
	warmUp     = 2 * time.Second
	windows    = 8
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	treeqd   string
	golden   string
	out      string
	commit   string
	update   bool
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd is every end-to-end metric, in report order, with its unit.  The
// ninth, failed_share, is the contract's failed / attempted: it is 0 on a
// correct run, and a metric that is always 0 has no spread to bound.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "throughput_rps", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p95_ms", unit: "ms"},
	{name: "allocs_per_req", unit: "count"},
	{name: "cpu_ms_per_req", unit: "ms"},
	{name: "rss_peak_mb", unit: "MiB"},
	{name: "resp_kb_per_req", unit: "KiB"},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "point_hot", "workload to run: point_hot, join_mix, scan_mix, corpus_fanout, update_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: decides the documents and the request streams")
	flag.IntVar(&cfg.seconds, "seconds", 16, "measured seconds (split into 8 windows)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run: report the per-layer metrics in place of the end-to-end ones")
	flag.StringVar(&cfg.treeqd, "treeqd", "bench/out/treeqd", "the treeqd binary to start")
	flag.StringVar(&cfg.golden, "golden", "bench/golden", "directory of checked-in expected-answer digests")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for the result and span files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit under test, recorded in the output")
	flag.BoolVar(&cfg.update, "update-golden", false, "write this seed's expected-answer digest and exit")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "treeload:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	s, ok := specByName(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	c := newCorpus(s, cfg.seed)
	o, err := newOracle(c)
	if err != nil {
		return err
	}
	if cfg.update {
		return os.WriteFile(goldenPath(cfg.golden, c.name, c.seed), []byte(o.digest()+"\n"), 0o644)
	}
	if err := o.checkGolden(cfg.golden); err != nil {
		return err
	}

	// An interrupted run must not leave a treeqd behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		if d := live.Load(); d != nil {
			d.stop()
		}
		os.Exit(130)
	}()

	nproc := runtime.NumCPU()
	load := loadAverage()
	fmt.Printf("# workload %s seed %d seconds %d trace %d\n", c.name, c.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# nproc %d gomaxprocs %d go %s commit %s loadavg1 %.2f\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit, load)
	if load > float64(nproc)/2 {
		fmt.Fprintf(os.Stderr, "treeload: WARNING 1-min load average %.2f exceeds nproc/2 = %.1f; timings will be noisy\n", load, float64(nproc)/2)
	}

	var res result
	if cfg.trace != 0 {
		res, err = runTraced(cfg, o)
	} else {
		res, err = runEndToEnd(cfg, o)
	}
	if err != nil {
		return err
	}
	kind := "end_to_end"
	if cfg.trace != 0 {
		kind = "per_layer"
	}
	if err := res.print(filepath.Join(cfg.out, c.name+"."+kind+".json")); err != nil {
		return err
	}
	if res.failed > 0 || res.rejected > 0 {
		return fmt.Errorf("%d of %d operations failed, %.0f rejected by the admission gate", res.failed, res.attempted, res.rejected)
	}
	if res.problem != "" {
		return errors.New(res.problem)
	}
	return nil
}

// result is what a run reports.
type result struct {
	attempted int
	failed    int
	rejected  float64
	metrics   []metric
	// problem, when set, fails the run after its metrics are printed.
	problem string
}

// print writes every metric as "name value unit" and, as the last line, the
// JSON object of the benchmark contract, which it also keeps in path.
func (r result) print(path string) error {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.failed == 0 && r.rejected == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		fmt.Printf("%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // strings, ints and finite floats cannot fail
	fmt.Println(string(line))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(line, '\n'), 0o644)
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// startMeasured runs the cold starts and returns the last daemon, still
// serving, with the set-up times in seconds of the starts that ran
// undisturbed (see quiet).
func startMeasured(cfg config, o *oracle, starts int) (*daemon, []float64, error) {
	var times, stolen []float64
	for i := 0; ; i++ {
		before := stolenTicks()
		d, took, err := coldStart(cfg.treeqd, o)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		stolen = append(stolen, stolenShare(stolenTicks()-before, took))
		if i == starts-1 {
			return d, pick(times, quiet(stolen)), nil
		}
		d.stop()
	}
}

// runEndToEnd is the untraced run: cold starts, warm-up, measurement windows
// between two scrapes of the daemon.
func runEndToEnd(cfg config, o *oracle) (result, error) {
	d, setups, err := startMeasured(cfg, o, coldStarts)
	if err != nil {
		return result{}, err
	}
	defer d.stop()
	g := newLoadGen(d, o)
	defer g.close()

	warm := g.run(1, warmUp)
	before, err := d.scrape()
	if err != nil {
		return result{}, err
	}
	window := time.Duration(cfg.seconds) * time.Second / windows
	cpuTicks := make([]float64, windows+1)
	stolen := make([]float64, windows+1)
	g.onBoundary = func(i int) {
		cpuTicks[i], _ = d.cpuTicks()
		stolen[i] = stolenTicks()
	}
	ph := g.run(windows, window)
	after, err := d.scrape()
	if err != nil {
		return result{}, err
	}

	// Per window: throughput, latencies, the daemon's CPU time per request,
	// and the share of the machine's CPU time stolen meanwhile.
	rps := perWindow(ph.windows, func(w []sample) float64 { return float64(len(w)-countFailed(w)) / window.Seconds() })
	p50 := perWindow(ph.windows, func(w []sample) float64 { return percentile(latenciesMS(w, ""), 50) })
	p95 := perWindow(ph.windows, func(w []sample) float64 { return percentile(latenciesMS(w, ""), 95) })
	cpuMS := make([]float64, windows)
	stolenBy := make([]float64, windows)
	for w := range cpuMS {
		cpuMS[w] = ratio((cpuTicks[w+1]-cpuTicks[w])*1000/clockTicksPerSecond, float64(len(ph.windows[w])))
		stolenBy[w] = stolenShare(stolen[w+1]-stolen[w], window)
		fmt.Printf("# window %d: %.1f 1/s, p50 %.4f ms, p95 %.4f ms, daemon cpu %.4f ms/request, %.1f%% of CPU time stolen\n",
			w, rps[w], p50[w], p95[w], cpuMS[w], stolenBy[w]*100)
	}
	used := quiet(stolenBy)
	fmt.Printf("# timings from windows %v\n", used)

	done := float64(ph.executed - ph.failed)
	all := flattenWindows(ph.windows)
	var bytes float64
	for _, s := range all {
		bytes += float64(s.bytes)
	}
	res := result{
		attempted: warm.executed + ph.executed,
		failed:    warm.failed + ph.failed,
		rejected:  after.rejected,
	}
	m := map[string]float64{
		"setup_s":         median(setups),
		"throughput_rps":  median(pick(rps, used)),
		"latency_p50_ms":  median(pick(p50, used)),
		"latency_p95_ms":  median(pick(p95, used)),
		"allocs_per_req":  ratio(after.mallocs-before.mallocs, done),
		"cpu_ms_per_req":  median(pick(cpuMS, used)),
		"rss_peak_mb":     after.hwmKiB / 1024,
		"resp_kb_per_req": ratio(bytes/1024, float64(len(all))),
	}
	for _, em := range endToEnd {
		res.metrics = append(res.metrics, metric{em.name, m[em.name], em.unit})
	}
	fmt.Printf("# requests %d in %d windows of %v, %d clients\n", ph.executed, windows, window, len(g.clients))
	fmt.Printf("failed_share %g ratio\n", ratio(float64(res.failed), float64(res.attempted)))
	return res, nil
}
