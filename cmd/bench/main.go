// Command bench regenerates the tables and figures of the paper's
// evaluation (§4): Figure 10 (runtime vs. quasi-identifier size), Figure 11
// (runtime vs. k), Figure 12 (Cube Incognito cost breakdown), the §4.2.1
// nodes-searched table, and the Figure 9 dataset descriptions.
//
// Examples:
//
//	bench -experiment fig9
//	bench -experiment fig10-adults -rows 45222
//	bench -experiment fig10-landsend -rows 200000 -maxqi 6
//	bench -experiment fig11-adults
//	bench -experiment fig11-landsend
//	bench -experiment fig12
//	bench -experiment nodes-table
//	bench -experiment all -rows 5000
//
// Observability: -trace FILE writes a JSON execution trace (one span per
// cell with the run's phase spans nested under it), -trace-chrome FILE the
// same trace as Chrome trace-event JSON for Perfetto, -metrics-addr serves
// live Prometheus metrics plus pprof over HTTP, -metrics-out writes the
// final metrics snapshot, -v emits periodic structured progress events
// (-log-format text|json), -cpuprofile/-memprofile write pprof profiles,
// and an interrupt (Ctrl-C) cancels the sweep at the next phase boundary
// with a non-zero exit. Absolute times depend on the machine; the claims
// under reproduction are relative (see EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"incognito/internal/bench"
	"incognito/internal/dataset"
	"incognito/internal/profiling"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
	"incognito/internal/version"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: fig9, fig10-adults, fig10-landsend, fig11-adults, fig11-landsend, fig12, nodes-table, parallel, kernel, incremental, or all")
		adultsRows = flag.Int("rows", dataset.AdultsDefaultRows, "row count for the Adults dataset")
		leRows     = flag.Int("landsend-rows", 200000, "row count for the Lands End dataset (the original had 4,591,581)")
		seed       = flag.Int64("seed", 1, "generator seed")
		minQI      = flag.Int("minqi", 3, "smallest quasi-identifier size to sweep")
		maxQI      = flag.Int("maxqi", 0, "largest quasi-identifier size to sweep (0 = dataset maximum)")
		algosFlag  = flag.String("algos", "", "comma-separated algorithm subset (bottomup, bottomup-rollup, binary, basic, cube, superroots); empty = all six")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet      = flag.Bool("quiet", false, "suppress per-cell progress lines")
		parallel   = flag.Int("parallelism", 0, "worker bound for the parallel experiment: 0 = all cores, n = at most n workers")
		jsonOut    = flag.Bool("json", false, "emit the parallel experiment as JSON (for BENCH_parallel.json)")

		traceOut    = flag.String("trace", "", "write a JSON execution trace (span tree + per-phase counters) to this file")
		chromeOut   = flag.String("trace-chrome", "", "write the execution trace as Chrome trace-event JSON (open in Perfetto) to this file")
		metricsAddr = flag.String("metrics-addr", "", "serve live Prometheus metrics and pprof on this address (e.g. localhost:9090); empty disables")
		metricsOut  = flag.String("metrics-out", "", "write the final Prometheus text-format metrics snapshot to this file")
		logFormat   = flag.String("log-format", "text", "structured log format for progress events: text or json")
		verbose     = flag.Bool("v", false, "emit periodic structured progress events to stderr")
		showVersion = flag.Bool("version", false, "print version information and exit")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file")
		checkpoint  = flag.String("checkpoint", "", "save resumable search snapshots to this file (Incognito-variant cells only)")
		resume      = flag.String("resume", "", "resume an interrupted sweep from a snapshot file written by -checkpoint; cells other than the interrupted one rerun fresh")
		memBudget   = flag.String("mem-budget", "", "soft memory budget for frequency sets, e.g. 64Mi or 1Gi (empty disables); past 2x a cell stops with the solutions proven so far (exit 3)")
		timeout     = flag.Duration("timeout", 0, "abort the sweep after this duration, flushing telemetry and exiting 124 (0 disables)")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("bench"))
		os.Exit(0)
	}
	if flag.NArg() > 0 {
		usageError(fmt.Errorf("unexpected positional arguments %q (all inputs are flags)", flag.Args()))
	}
	switch {
	case *adultsRows < 1:
		usageError(fmt.Errorf("-rows must be >= 1, got %d", *adultsRows))
	case *leRows < 1:
		usageError(fmt.Errorf("-landsend-rows must be >= 1, got %d", *leRows))
	case *minQI < 1:
		usageError(fmt.Errorf("-minqi must be >= 1, got %d", *minQI))
	case *maxQI < 0:
		usageError(fmt.Errorf("-maxqi must be >= 0 (0 = dataset maximum), got %d", *maxQI))
	case *parallel < 0:
		usageError(fmt.Errorf("-parallelism must be >= 0 (0 = all cores), got %d", *parallel))
	case *timeout < 0:
		usageError(fmt.Errorf("-timeout must be >= 0, got %v", *timeout))
	}
	budgetBytes, err := resilience.ParseByteSize(*memBudget)
	if err != nil {
		usageError(fmt.Errorf("-mem-budget: %w", err))
	}

	algos := bench.AllAlgos
	algosExplicit := *algosFlag != ""
	if algosExplicit {
		algos = nil
		for _, name := range strings.Split(*algosFlag, ",") {
			a, err := bench.ParseAlgo(strings.TrimSpace(name))
			if err != nil {
				usageError(err)
			}
			algos = append(algos, a)
		}
	}
	var progress bench.Progress
	if !*quiet {
		progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logFormat, *verbose)
	if err != nil {
		usageError(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancelTimeout := func() {}
	if *timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, *timeout)
	}
	r := &runner{
		ctx:           ctx,
		adultsRows:    *adultsRows,
		leRows:        *leRows,
		seed:          *seed,
		minQI:         *minQI,
		maxQI:         *maxQI,
		algos:         algos,
		algosExplicit: algosExplicit,
		csv:           *csv,
		parallelism:   *parallel,
		jsonOut:       *jsonOut,
		progress:      progress,
	}
	cfg := obsConfig{
		traceOut:    *traceOut,
		chromeOut:   *chromeOut,
		metricsAddr: *metricsAddr,
		metricsOut:  *metricsOut,
		cpuProfile:  *cpuProfile,
		memProfile:  *memProfile,
		logger:      logger,
		verbose:     *verbose,
	}
	if cfg.metricsAddr != "" || cfg.metricsOut != "" {
		cfg.reg = telemetry.NewRegistry()
	}
	if cfg.traceOut != "" || cfg.chromeOut != "" || cfg.reg.Enabled() {
		r.obs.Tracer = trace.New()
		r.obs.Tracer.SetAttr("command", "bench")
		r.obs.Tracer.SetAttr("experiment", *experiment)
	}
	if *verbose || cfg.reg.Enabled() {
		r.obs.Progress = telemetry.NewProgress()
	}
	r.obs.Metrics = cfg.reg.NewRunMetrics()
	telemetry.RegisterProgress(cfg.reg, r.obs.Progress)
	r.obs.Budget = resilience.NewAccountant(budgetBytes)
	r.obs.Check = resilience.NewCheckpointer(*checkpoint)
	if *resume != "" {
		snap, rerr := resilience.Load(*resume)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "bench: "+rerr.Error())
			os.Exit(1)
		}
		r.obs.Resume = snap
	}
	telemetry.RegisterBudget(cfg.reg, r.obs.Budget)
	telemetry.RegisterCheckpoints(cfg.reg, r.obs.Check)
	code := run(r, *experiment, cfg)
	cancelTimeout()
	stop()
	os.Exit(code)
}

// obsConfig carries the observability outputs run() must produce and the
// instruments it must start and stop around the experiment.
type obsConfig struct {
	traceOut, chromeOut     string
	metricsAddr, metricsOut string
	cpuProfile, memProfile  string
	reg                     *telemetry.Registry
	logger                  *slog.Logger
	verbose                 bool
}

// run executes the selected experiment with profiling, tracing, and
// telemetry wired up, and converts the outcome to a process exit code. It
// must not os.Exit itself so the profile stop and the observability writes
// always happen.
func run(r *runner, experiment string, cfg obsConfig) int {
	stopProfiles, err := profiling.Start(cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: "+err.Error())
		return 1
	}
	var srv *telemetry.Server
	if cfg.metricsAddr != "" {
		srv, err = telemetry.Serve(cfg.metricsAddr, cfg.reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: "+err.Error())
			return 1
		}
		// Printed to stderr so scripts (and the CLI tests) can discover the
		// bound port when -metrics-addr ends in :0.
		fmt.Fprintf(os.Stderr, "bench: metrics listening on http://%s/metrics\n", srv.Addr())
	}
	stopSampler := telemetry.StartSampler(cfg.reg, time.Second)
	var stopReporter func()
	if cfg.verbose {
		stopReporter = telemetry.StartReporter(cfg.logger, r.obs.Progress, time.Second)
	}
	err = r.dispatch(experiment)
	if stopReporter != nil {
		stopReporter()
	}
	stopSampler()
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The sweep was interrupted or timed out: the trace and metrics below
		// are still flushed, stamped so post-mortem tooling can tell a
		// truncated recording from a complete one.
		r.obs.Tracer.SetAttr("cancelled", true)
		cfg.reg.Gauge("incognito_run_cancelled", "1 when the run was interrupted or timed out before completing.").Set(1)
	}
	doc := r.obs.Tracer.Export()
	telemetry.RecordTrace(cfg.reg, doc)
	if cfg.traceOut != "" {
		if terr := writeTrace(r.obs.Tracer, cfg.traceOut); terr != nil && err == nil {
			err = terr
		}
	}
	if cfg.chromeOut != "" {
		if cerr := writeFile(cfg.chromeOut, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(doc, w)
		}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if cfg.metricsOut != "" {
		if merr := writeFile(cfg.metricsOut, cfg.reg.WritePrometheus); merr != nil && err == nil {
			err = merr
		}
	}
	if srv != nil {
		if serr := srv.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "bench:") {
			msg = "bench: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return 124 // timed out, by the timeout(1) convention
		case errors.Is(err, context.Canceled):
			return 130 // interrupted, by shell convention
		case errors.Is(err, resilience.ErrDegraded):
			return 3 // partial result under memory pressure
		}
		return 1
	}
	return 0
}

// usageError reports a command-line mistake and exits with status 2 —
// flag misuse must never look like a successful run.
func usageError(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "bench:") {
		msg = "bench: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	fmt.Fprintln(os.Stderr, "run 'bench -help' for usage")
	os.Exit(2)
}

func writeTrace(tr *trace.Tracer, path string) error {
	return writeFile(path, tr.WriteJSON)
}

// writeFile creates path and streams write into it, surfacing both write
// and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type runner struct {
	ctx                context.Context
	obs                bench.Obs
	adultsRows, leRows int
	seed               int64
	minQI, maxQI       int
	algos              []bench.Algo
	algosExplicit      bool
	csv                bool
	parallelism        int
	jsonOut            bool
	progress           bench.Progress

	adultsCache, leCache *dataset.Dataset
}

func (r *runner) dispatch(experiment string) error {
	switch experiment {
	case "fig9":
		return r.fig9()
	case "fig10-adults":
		return r.fig10(r.adults())
	case "fig10-landsend":
		return r.fig10(r.landsEnd())
	case "fig11-adults":
		return r.fig11Adults()
	case "fig11-landsend":
		return r.fig11LandsEnd()
	case "fig12":
		return r.fig12()
	case "nodes-table":
		return r.nodesTable()
	case "parallel":
		return r.parallel()
	case "kernel":
		return r.kernel()
	case "incremental":
		return r.incremental()
	case "all":
		for _, f := range []func() error{
			r.fig9,
			func() error { return r.fig10(r.adults()) },
			func() error { return r.fig10(r.landsEnd()) },
			r.fig11Adults,
			r.fig11LandsEnd,
			r.fig12,
			r.nodesTable,
		} {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("bench: unknown experiment %q (run 'bench -help' for the list)", experiment)
}

func (r *runner) adults() *dataset.Dataset {
	if r.adultsCache == nil {
		r.progress.Log("generating Adults dataset (%d rows)...", r.adultsRows)
		r.adultsCache = dataset.Adults(r.adultsRows, r.seed)
	}
	return r.adultsCache
}

func (r *runner) landsEnd() *dataset.Dataset {
	if r.leCache == nil {
		r.progress.Log("generating Lands End dataset (%d rows)...", r.leRows)
		r.leCache = dataset.LandsEnd(r.leRows, r.seed)
	}
	return r.leCache
}

func (r *runner) qiRange(d *dataset.Dataset) (int, int) {
	max := r.maxQI
	if max == 0 || max > len(d.QICols) {
		max = len(d.QICols)
	}
	min := r.minQI
	if min < 1 {
		min = 1
	}
	if min > max {
		min = max
	}
	return min, max
}

func (r *runner) emit(s *bench.Sweep, nodes bool) error {
	var err error
	switch {
	case r.csv:
		fmt.Println(s.Title)
		err = s.WriteCSV(os.Stdout)
	case nodes:
		err = s.WriteNodes(os.Stdout)
	default:
		err = s.WriteElapsed(os.Stdout)
	}
	if err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r *runner) fig9() error {
	fmt.Println("Figure 9: dataset descriptions")
	if err := bench.Describe(r.adults(), os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := bench.Describe(r.landsEnd(), os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r *runner) fig10(d *dataset.Dataset) error {
	min, max := r.qiRange(d)
	for _, k := range []int64{2, 10} {
		s, err := bench.Fig10(r.ctx, r.obs, d, k, min, max, r.algos, r.progress)
		if err != nil {
			return err
		}
		if err := r.emit(s, false); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) fig11Adults() error {
	d := r.adults()
	qi := 8
	if qi > len(d.QICols) {
		qi = len(d.QICols)
	}
	// Fig. 11's legend: binary search, bottom-up with rollup, Basic and
	// Super-roots Incognito. An explicit -algos overrides the subset.
	algos := []bench.Algo{bench.BinarySearch, bench.BottomUpRollup, bench.BasicIncognito, bench.SuperRootsIncognito}
	if r.algosExplicit {
		algos = r.algos
	}
	s, err := bench.Fig11(r.ctx, r.obs, d, qi, []int64{2, 5, 10, 25, 50}, algos, nil, r.progress)
	if err != nil {
		return err
	}
	return r.emit(s, false)
}

func (r *runner) fig11LandsEnd() error {
	d := r.landsEnd()
	// The paper staggers the Lands End panel: Binary Search at QID 6,
	// the Incognito variants at QID 8.
	algos := []bench.Algo{bench.BinarySearch, bench.BasicIncognito, bench.SuperRootsIncognito}
	s, err := bench.Fig11(r.ctx, r.obs, d, 8, []int64{2, 5, 10, 25, 50}, algos,
		map[bench.Algo]int{bench.BinarySearch: 6}, r.progress)
	if err != nil {
		return err
	}
	return r.emit(s, false)
}

func (r *runner) fig12() error {
	for _, d := range []*dataset.Dataset{r.adults(), r.landsEnd()} {
		min, max := r.qiRange(d)
		s, err := bench.Fig12(r.ctx, r.obs, d, 2, min, max, r.progress)
		if err != nil {
			return err
		}
		if err := r.emit(s, false); err != nil {
			return err
		}
	}
	return nil
}

// parallel compares the sequential reference against the intra-run
// parallel path on the headline workloads: the Incognito variants on the
// full 9-attribute Adults quasi-identifier and on Lands End at QID 6,
// k=2. With -json the report is machine-readable (BENCH_parallel.json).
func (r *runner) parallel() error {
	algos := []bench.Algo{bench.BasicIncognito, bench.SuperRootsIncognito, bench.CubeIncognito}
	if r.algosExplicit {
		algos = r.algos
	}
	report := bench.NewParallelReport(r.parallelism)
	for _, w := range []struct {
		d  *dataset.Dataset
		qi int
	}{
		{r.adults(), len(r.adults().QICols)},
		{r.landsEnd(), 6},
	} {
		cells, err := bench.Parallel(r.ctx, r.obs, w.d, w.qi, 2, algos, r.parallelism, r.progress)
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cells...)
	}
	if r.jsonOut {
		return report.WriteJSON(os.Stdout)
	}
	return report.WriteTable(os.Stdout)
}

// kernel compares the sparse frequency-set kernel against the adaptive
// dense mixed-radix kernel: end-to-end cells (the Incognito variants on the
// full Adults quasi-identifier and on Lands End at QID 6, k=2) plus scan
// and rollup microbenchmarks at each dataset's canonical dense-eligible
// generalized layout. With -json the report is machine-readable
// (BENCH_kernel.json).
func (r *runner) kernel() error {
	algos := []bench.Algo{bench.BasicIncognito, bench.SuperRootsIncognito, bench.CubeIncognito}
	if r.algosExplicit {
		algos = r.algos
	}
	report := bench.NewKernelReport()
	for _, w := range []struct {
		d  *dataset.Dataset
		qi int
	}{
		{r.adults(), len(r.adults().QICols)},
		{r.landsEnd(), 6},
	} {
		cells, err := bench.Kernel(r.ctx, r.obs, w.d, w.qi, 2, algos, r.progress)
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cells...)
		micro, err := bench.KernelMicros(w.d, w.qi, r.progress)
		if err != nil {
			return err
		}
		report.Micro = append(report.Micro, micro...)
	}
	if r.jsonOut {
		return report.WriteJSON(os.Stdout)
	}
	return report.WriteTable(os.Stdout)
}

// incremental measures delta-driven re-anonymization: after a ~1% row
// edit of each headline workload, a delta run screening against the
// retained state must reproduce a cold recomputation's solutions and
// Stats bit for bit while re-scanning a small fraction of the rows and
// revalidating a small fraction of the nodes, across kernels and worker
// counts. With -json the report is machine-readable (BENCH_incremental.json).
func (r *runner) incremental() error {
	report := bench.NewIncrementalReport()
	for _, w := range []struct {
		d  *dataset.Dataset
		qi int
	}{
		{r.adults(), len(r.adults().QICols)},
		{r.landsEnd(), 6},
	} {
		cells, err := bench.Incremental(r.ctx, r.obs, w.d, w.qi, 2, r.progress)
		if err != nil {
			return err
		}
		report.Cells = append(report.Cells, cells...)
	}
	if r.jsonOut {
		return report.WriteJSON(os.Stdout)
	}
	return report.WriteTable(os.Stdout)
}

func (r *runner) nodesTable() error {
	d := r.adults()
	min, max := r.qiRange(d)
	s, err := bench.NodesTable(r.ctx, r.obs, d, 2, min, max, r.progress)
	if err != nil {
		return err
	}
	return r.emit(s, true)
}
