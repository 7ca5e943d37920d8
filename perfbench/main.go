// Command perfbench is the repository benchmark. It drives the program
// only through public entry points — the root incognito API,
// internal/qispec, and the internal/service HTTP handler run in-process —
// on inputs generated from --seed by internal/dataset, checks every
// operation's output, and prints one JSON result line as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload adults-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from spans the benchmark records around each call into a layer and
// writes to .bench_build/spans-WORKLOAD-SEED.json at exit. DESIGN.md in
// this directory records why each workload exists and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloads maps a --workload name to the function that runs it.
var workloads = map[string]func(p params) (*report, error){
	"adults-cold":    adultsCold,
	"landsend-delta": landsEndDelta,
	"service-mix":    serviceMix,
}

// params is what every workload function receives.
type params struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil for the untraced run
	size    size
	work    string    // work directory inside the checkout, removed at exit
	log     io.Writer // progress lines (standard error)
}

// size fixes the input sizes of a run. fullSize is what BENCHMARK.json
// measures; tinySize is the self-test's.
type size struct {
	adultsRows   int // adults-cold table
	landsEndRows int // landsend-delta table
	serviceRows  int // rows of each service-mix dataset
	datasets     int // engine datasets per run, each set up separately
}

var fullSize = size{adultsRows: 45222, landsEndRows: 100000, serviceRows: 5000, datasets: 3}

var tinySize = size{adultsRows: 300, landsEndRows: 400, serviceRows: 300, datasets: 1}

// report is a workload's raw measurements; main turns it into metrics.
type report struct {
	attempted, failed int
	setup             []time.Duration // one per set-up: an engine dataset or a service-mix round
	// latency holds the timed samples of each operation type, untraced
	// ops only; "latency_ms" is the workload's primary operation.
	latency map[string][]time.Duration
	ops     int           // client operations completed in the timed phase
	wall    time.Duration // timed phase wall time
	cpu     time.Duration // process user+sys CPU in the timed phase
	// rssPeaks holds the highest resident set, in bytes, of each measured
	// window of the timed phase (see meter).
	rssPeaks []int64
	// layers holds the traced run's per-layer values (nil when untraced).
	layers map[string]float64
}

// fillLayers derives a traced run's per-layer values: the spans' (see
// tracer.layers), the runtime counters per op, and the trace overhead of
// the traced primary ops against the untraced ones.
func (r *report) fillLayers(tr *tracer, m *meter, traced []time.Duration) {
	r.layers = tr.layers()
	if r.ops > 0 {
		r.layers["runtime.alloc_mb_per_op"] = m.allocMB / float64(r.ops)
		r.layers["runtime.gc_cycles_per_op"] = m.gcCycles / float64(r.ops)
	}
	if u := median(r.latency["latency_ms"]); u > 0 && len(traced) > 0 {
		r.layers["bench.trace_overhead_pct"] = 100 * (float64(median(traced))/float64(u) - 1)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "adults-cold, landsend-delta or service-mix")
	seed := fs.Int64("seed", 1, "input seed; every dataset seed derives from it")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload adults-cold|landsend-delta|service-mix --seed N --seconds N --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, size: fullSize, work: work, log: stderr}
	if *traceFlag == 1 {
		p.tr = newTracer()
	}
	rep, err := drive(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	var metrics map[string]metric
	if p.tr != nil {
		path := fmt.Sprintf("%s/spans-%s-%d.json", buildDir, *name, *seed)
		if err := p.tr.writeJSON(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		metrics = layerMetrics(rep.layers)
	} else {
		metrics = endToEnd(rep)
	}
	printSummary(stdout, *name, rep, metrics)
	line, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildDir is the checkout-relative directory for build outputs, work
// files and span dumps; .gitignore names it.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the BENCHMARK.json end-to-end metrics of an untraced run.
func endToEnd(r *report) map[string]metric {
	ops := float64(max(r.ops, 1))
	return map[string]metric{
		"setup_s":          {median(r.setup).Seconds(), "s"},
		"latency_ms":       {ms(median(r.latency["latency_ms"])), "ms"},
		"cpu_ms_per_op":    {ms(r.cpu) / ops, "ms"},
		"peak_rss_mb":      {float64(median(r.rssPeaks)) / (1 << 20), "MB"},
		"throughput_ops_s": {float64(r.ops) / r.wall.Seconds(), "ops/s"},
	}
}

// printSummary writes the human-readable lines that precede the JSON
// result: each median with its sample count (latencies also with the
// highest percentile that has at least ten samples beyond it), every
// metric by name and unit, and the fail ratio.
func printSummary(w io.Writer, name string, r *report, metrics map[string]metric) {
	fmt.Fprintf(w, "# workload %s\n", name)
	fmt.Fprintf(w, "%-18s %10.3f s   median of n=%d set-ups\n", "setup_s", median(r.setup).Seconds(), len(r.setup))
	fmt.Fprintf(w, "%-18s %10.3f MB  median of n=%d windows\n", "peak_rss_mb", float64(median(r.rssPeaks))/(1<<20), len(r.rssPeaks))
	keys := make([]string, 0, len(r.latency))
	for k := range r.latency {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := r.latency[k]
		line := fmt.Sprintf("%-18s %10.3f ms  median of n=%d", k, ms(median(s)), len(s))
		if p, v, ok := tailPercentile(s); ok {
			line += fmt.Sprintf(", p%g=%.3f ms", p, ms(v))
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-34s %14.4f 1  (%d of %d ops failed, refused or wrong)\n",
		"fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
