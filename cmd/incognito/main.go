// Command incognito anonymizes a CSV table: it computes k-anonymous
// full-domain generalizations of the quasi-identifier and writes the
// released view.
//
// The quasi-identifier is described with -qi as a semicolon-separated list
// of column:hierarchy pairs. Hierarchies:
//
//	suppress              one level mapping every value to "*"
//	round:N               N ≤ 64 levels, each starring one more trailing character
//	interval:ORIGIN:W1,W2 integer ranges of widths W1 < W2 < … then "*"
//	date                  M/D/Y → M/Y → Y → "*"
//	taxonomy:FILE.json    explicit parent maps (a JSON array of objects)
//	csv:FILE.csv          dimension-table CSV: base value + one column per level
//
// Example:
//
//	incognito -input patients.csv -k 2 \
//	  -qi 'Birthdate=suppress;Sex=taxonomy:sex.json;Zipcode=round:2' \
//	  -output released.csv -list
//
// Run with -demo to see the paper's Patients example end to end without any
// input files.
//
// Observability: -trace FILE writes a JSON execution trace (the span tree
// of every search phase, with per-phase wall time and work counters, plus
// state.load and state.save spans around -state-in and -state-out),
// -trace-chrome FILE the same trace as Chrome trace-event JSON for
// Perfetto, -metrics-addr serves live Prometheus metrics plus pprof over
// HTTP, -metrics-out writes the final metrics snapshot, -v emits periodic
// structured progress events (-log-format text|json),
// -cpuprofile/-memprofile write pprof profiles, and an interrupt (Ctrl-C)
// cancels the search at the next phase boundary with a non-zero exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	incognito "incognito"
	"incognito/internal/profiling"
	"incognito/internal/qispec"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/version"
)

// options holds the parsed command line; one struct so the run path can be
// a plain function that returns errors instead of exiting mid-stream.
type options struct {
	input, output, qiSpec  string
	k, suppress            int
	algoName               string
	budget, parallel       int
	criteria               string
	list, demo, stats      bool
	dotFile                string
	traceOut, chromeOut    string
	metricsAddr            string
	metricsOut             string
	logFormat              string
	verbose                bool
	showVersion            bool
	cpuProfile, memProfile string
	checkpoint, resume     string
	memBudget              string
	timeout                time.Duration
	stateIn, stateOut      string
	deltaAdd, deltaDel     string
}

func main() {
	var o options
	flag.StringVar(&o.input, "input", "", "input CSV file (first record is the header)")
	flag.StringVar(&o.output, "output", "", "write the released view to this CSV file (default: stdout)")
	flag.StringVar(&o.qiSpec, "qi", "", "quasi-identifier spec: 'Col=hier;Col=hier;…'")
	flag.IntVar(&o.k, "k", 2, "anonymity parameter")
	flag.IntVar(&o.suppress, "suppress", 0, "tuple-suppression threshold")
	flag.StringVar(&o.algoName, "algorithm", "basic", "basic, superroots, cube, materialized, bottomup, bottomup-rollup, or binary")
	flag.IntVar(&o.budget, "budget", 1<<20, "partial-cube size budget in groups (materialized algorithm only)")
	flag.IntVar(&o.parallel, "parallelism", 0, "intra-run worker bound: 0 = all cores, 1 = sequential, n = at most n workers")
	flag.StringVar(&o.criteria, "criterion", "height", "minimality criterion: height, precision, discernibility, or avgclass")
	flag.BoolVar(&o.list, "list", false, "print every k-anonymous generalization, not just the chosen one")
	flag.StringVar(&o.dotFile, "dot", "", "write the generalization lattice as Graphviz DOT to this file")
	flag.BoolVar(&o.demo, "demo", false, "run the paper's Patients example instead of reading input")
	flag.BoolVar(&o.stats, "stats", false, "print search statistics")
	flag.StringVar(&o.traceOut, "trace", "", "write a JSON execution trace (span tree + per-phase counters) to this file")
	flag.StringVar(&o.chromeOut, "trace-chrome", "", "write the execution trace as Chrome trace-event JSON (open in Perfetto) to this file")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live Prometheus metrics and pprof on this address (e.g. localhost:9090); empty disables")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the final Prometheus text-format metrics snapshot to this file")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format for progress events: text or json")
	flag.BoolVar(&o.verbose, "v", false, "emit periodic structured progress events to stderr")
	flag.BoolVar(&o.showVersion, "version", false, "print version information and exit")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "save resumable search snapshots to this file (Incognito variants only)")
	flag.StringVar(&o.resume, "resume", "", "resume the search from a snapshot file written by -checkpoint")
	flag.StringVar(&o.memBudget, "mem-budget", "", "soft memory budget for frequency sets, e.g. 64Mi or 1Gi (empty disables); past 2x the run stops with the solutions proven so far (exit 3)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the run after this duration, flushing telemetry and exiting 124 (0 disables)")
	flag.StringVar(&o.stateOut, "state-out", "", "save the run state (for later -state-in delta runs) to this file; basic algorithm only")
	flag.StringVar(&o.stateIn, "state-in", "", "re-anonymize incrementally from a state file written by -state-out, applying -delta-add/-delta-del to the input; results are bit-identical to a cold run on the edited table")
	flag.StringVar(&o.deltaAdd, "delta-add", "", "CSV file (same header as the input) of rows to append; requires -state-in")
	flag.StringVar(&o.deltaDel, "delta-del", "", "CSV file (same header as the input) of rows to delete; requires -state-in")
	flag.Parse()

	if o.showVersion {
		fmt.Println(version.String("incognito"))
		os.Exit(0)
	}
	if err := o.validate(); err != nil {
		usageError(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancelTimeout := func() {}
	if o.timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, o.timeout)
	}
	code := run(ctx, &o)
	cancelTimeout()
	stop()
	os.Exit(code)
}

// validate rejects flag combinations that cannot run; these are usage
// errors (exit 2), distinct from runtime failures (exit 1).
func (o *options) validate() error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected positional arguments %q (all inputs are flags)", flag.Args())
	}
	if o.k < 1 {
		return fmt.Errorf("-k must be >= 1, got %d", o.k)
	}
	if o.suppress < 0 {
		return fmt.Errorf("-suppress must be >= 0, got %d", o.suppress)
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallelism must be >= 0 (0 = all cores), got %d", o.parallel)
	}
	if o.budget < 1 {
		return fmt.Errorf("-budget must be >= 1, got %d", o.budget)
	}
	if o.logFormat != "" && o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("-log-format must be text or json, got %q", o.logFormat)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", o.timeout)
	}
	if _, err := resilience.ParseByteSize(o.memBudget); err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	if o.checkpoint != "" || o.resume != "" {
		switch o.algoName {
		case "basic", "superroots", "cube", "materialized":
		default:
			return fmt.Errorf("-checkpoint/-resume require an Incognito variant (basic, superroots, cube, or materialized), not %q", o.algoName)
		}
	}
	if (o.deltaAdd != "" || o.deltaDel != "") && o.stateIn == "" {
		return fmt.Errorf("-delta-add/-delta-del require -state-in (a state file from a previous -state-out run)")
	}
	if o.stateIn != "" || o.stateOut != "" {
		if o.algoName != "basic" {
			return fmt.Errorf("-state-in/-state-out support only the basic algorithm, not %q", o.algoName)
		}
		if o.demo {
			return fmt.Errorf("-state-in/-state-out cannot be combined with -demo")
		}
	}
	if o.stateIn != "" && o.memBudget != "" {
		return fmt.Errorf("-state-in (delta runs) cannot be combined with -mem-budget")
	}
	if !o.demo && (o.input == "" || o.qiSpec == "") {
		return fmt.Errorf("-input and -qi are required (or use -demo)")
	}
	return nil
}

// usageError reports a command-line mistake and exits with status 2 —
// flag misuse must never look like a successful run.
func usageError(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "incognito:") {
		msg = "incognito: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	fmt.Fprintln(os.Stderr, "run 'incognito -help' for usage")
	os.Exit(2)
}

// instruments bundles the observability and resilience handles threaded
// into the search: each is independently nil (disabled).
type instruments struct {
	tracer   *incognito.Tracer
	progress *incognito.Progress
	metrics  *incognito.RunMetrics
	check    *incognito.Checkpointer
	resume   *incognito.Snapshot
	budget   *incognito.MemoryAccountant
}

// run executes the anonymization with profiling, tracing, and telemetry
// wired up and converts the outcome to a process exit code. It must not
// os.Exit itself so the profile stop and the observability writes always
// happen.
func run(ctx context.Context, o *options) int {
	stopProfiles, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incognito: "+err.Error())
		return 1
	}
	logger, err := telemetry.NewLogger(os.Stderr, o.logFormat, o.verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incognito: "+err.Error())
		return 1
	}
	var reg *telemetry.Registry
	if o.metricsAddr != "" || o.metricsOut != "" {
		reg = telemetry.NewRegistry()
	}
	var ins instruments
	if o.traceOut != "" || o.chromeOut != "" || reg.Enabled() {
		ins.tracer = incognito.NewTracer()
	}
	if o.verbose || reg.Enabled() {
		ins.progress = incognito.NewProgress()
	}
	ins.metrics = reg.NewRunMetrics()
	telemetry.RegisterProgress(reg, ins.progress)

	budgetBytes, _ := resilience.ParseByteSize(o.memBudget) // validated at startup
	ins.budget = incognito.NewMemoryBudget(budgetBytes)
	ins.check = incognito.NewCheckpointer(o.checkpoint)
	if o.resume != "" {
		snap, rerr := incognito.LoadCheckpoint(o.resume)
		if rerr != nil {
			fmt.Fprintln(os.Stderr, "incognito: "+rerr.Error())
			return 1
		}
		ins.resume = snap
	}
	telemetry.RegisterBudget(reg, ins.budget)
	telemetry.RegisterCheckpoints(reg, ins.check)

	var srv *telemetry.Server
	if o.metricsAddr != "" {
		srv, err = telemetry.Serve(o.metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "incognito: "+err.Error())
			return 1
		}
		// Printed to stderr so scripts (and the CLI tests) can discover the
		// bound port when -metrics-addr ends in :0.
		fmt.Fprintf(os.Stderr, "incognito: metrics listening on http://%s/metrics\n", srv.Addr())
	}
	stopSampler := telemetry.StartSampler(reg, time.Second)
	var stopReporter func()
	if o.verbose {
		stopReporter = telemetry.StartReporter(logger, ins.progress, time.Second)
	}

	if o.demo {
		err = runDemo(ctx, o, ins)
	} else {
		err = anonymizeFile(ctx, o, ins)
	}

	if stopReporter != nil {
		stopReporter()
	}
	stopSampler()
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The run was interrupted or timed out: the trace and metrics below
		// are still flushed, stamped so post-mortem tooling can tell a
		// truncated recording from a complete one.
		ins.tracer.SetAttr("cancelled", true)
		reg.Gauge("incognito_run_cancelled", "1 when the run was interrupted or timed out before completing.").Set(1)
	}
	doc := ins.tracer.Export()
	telemetry.RecordTrace(reg, doc)
	if o.traceOut != "" {
		if terr := writeFile(o.traceOut, ins.tracer.WriteJSON); terr != nil && err == nil {
			err = terr
		}
	}
	if o.chromeOut != "" {
		if cerr := writeFile(o.chromeOut, func(w io.Writer) error {
			return telemetry.WriteChromeTrace(doc, w)
		}); cerr != nil && err == nil {
			err = cerr
		}
	}
	if o.metricsOut != "" {
		if merr := writeFile(o.metricsOut, reg.WritePrometheus); merr != nil && err == nil {
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
		if !strings.HasPrefix(msg, "incognito:") {
			msg = "incognito: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return 124 // timed out, by the timeout(1) convention
		case errors.Is(err, context.Canceled):
			return 130 // interrupted, by shell convention
		case errors.Is(err, incognito.ErrDegraded):
			return 3 // partial result under memory pressure
		}
		return 1
	}
	return 0
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

// endStateSpan closes a state.load or state.save span, recording the state
// file's size as an attribute: a counter would join the trace's counter
// totals, which must equal -stats.
func endStateSpan(sp *incognito.Span, path string) {
	sp.End()
	if sp == nil {
		return
	}
	if fi, err := os.Stat(path); err == nil {
		sp.SetAttr("bytes", fi.Size())
	}
}

// anonymizeFile is the main CSV-in, CSV-out path.
func anonymizeFile(ctx context.Context, o *options, ins instruments) error {
	table, err := incognito.LoadCSV(o.input)
	if err != nil {
		return err
	}
	qi, err := parseQISpec(o.qiSpec)
	if err != nil {
		return err
	}
	cfg, crit, err := o.config(ins)
	if err != nil {
		return err
	}
	var res *incognito.Result
	if o.stateIn != "" {
		sp := ins.tracer.Start("state.load")
		state, serr := incognito.LoadRunState(o.stateIn)
		endStateSpan(sp, o.stateIn)
		if serr != nil {
			return serr
		}
		add, aerr := loadDeltaRows(o.deltaAdd, table)
		if aerr != nil {
			return aerr
		}
		del, derr := loadDeltaRows(o.deltaDel, table)
		if derr != nil {
			return derr
		}
		dres, derr2 := incognito.AnonymizeDelta(ctx, table, qi, cfg, state, add, del)
		if derr2 != nil {
			return derr2
		}
		res = dres.Result
		if o.stats {
			c := dres.Counters
			fmt.Fprintf(os.Stderr, "delta: %d rows rescanned, %d nodes screened, %d revalidated\n",
				c.RowsRescanned, c.NodesScreened, c.NodesRevalidated)
		}
	} else {
		res, err = incognito.AnonymizeContext(ctx, table, qi, cfg)
		if err != nil {
			return err
		}
	}
	if o.stateOut != "" {
		sp := ins.tracer.Start("state.save")
		serr := incognito.SaveRunState(o.stateOut, res.State())
		endStateSpan(sp, o.stateOut)
		if serr != nil {
			return serr
		}
		fmt.Fprintf(os.Stderr, "wrote run state to %s\n", o.stateOut)
	}

	if res.Len() == 0 {
		return fmt.Errorf("incognito: no %d-anonymous full-domain generalization exists (table too small for k?)", o.k)
	}
	if o.stats {
		st := res.Stats()
		fmt.Fprintf(os.Stderr, "searched: %d nodes checked, %d marked, %d candidates, %d table scans, %d rollups\n",
			st.NodesChecked, st.NodesMarked, st.Candidates, st.TableScans, st.Rollups)
	}
	if o.list {
		fmt.Fprintf(os.Stderr, "%d k-anonymous full-domain generalizations:\n", res.Len())
		for _, s := range res.Solutions() {
			fmt.Fprintf(os.Stderr, "  %-40s height=%d precision=%.3f suppressed=%d\n",
				s.String(), s.Height(), s.Precision(), s.Suppressed())
		}
	}

	if o.dotFile != "" {
		f, err := os.Create(o.dotFile)
		if err != nil {
			return err
		}
		if err := res.WriteDOT(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote lattice DOT to %s (render with: dot -Tsvg %s)\n", o.dotFile, o.dotFile)
	}

	best, _ := res.Best(crit)
	fmt.Fprintf(os.Stderr, "chosen generalization: %s (height %d, precision %.3f)\n",
		best.String(), best.Height(), best.Precision())

	view, err := best.Apply()
	if err != nil {
		return err
	}
	if o.output == "" {
		return view.WriteCSV(os.Stdout)
	}
	if err := view.SaveCSV(o.output); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", view.NumRows(), o.output)
	return nil
}

// config builds the run's Config and release criterion from the flags and
// the instruments. The file path and the demo both call it, so every flag
// reaches both.
func (o *options) config(ins instruments) (incognito.Config, incognito.Criterion, error) {
	algo, err := parseAlgorithm(o.algoName)
	if err != nil {
		return incognito.Config{}, nil, err
	}
	crit, err := parseCriterion(o.criteria)
	if err != nil {
		return incognito.Config{}, nil, err
	}
	return incognito.Config{
		K:                 o.k,
		MaxSuppressed:     o.suppress,
		Algorithm:         algo,
		MaterializeBudget: o.budget,
		Parallelism:       o.parallel,
		Tracer:            ins.tracer,
		Progress:          ins.progress,
		Metrics:           ins.metrics,
		Checkpoint:        ins.check,
		Resume:            ins.resume,
		Budget:            ins.budget,
		RetainState:       o.stateOut != "",
	}, crit, nil
}

// loadDeltaRows reads a delta CSV (same header as the input table, in the
// same order) into full-schema rows; an empty path is an empty delta.
func loadDeltaRows(path string, table *incognito.Table) ([][]string, error) {
	if path == "" {
		return nil, nil
	}
	d, err := incognito.LoadCSV(path)
	if err != nil {
		return nil, err
	}
	want, got := table.Columns(), d.Columns()
	if len(got) != len(want) {
		return nil, fmt.Errorf("incognito: delta file %s has %d columns, the input has %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, fmt.Errorf("incognito: delta file %s column %d is %q, the input has %q", path, i, got[i], want[i])
		}
	}
	return d.Rows(), nil
}

// The spec grammar lives in internal/qispec, shared verbatim with the
// incognitod service so a daemon-served run parses exactly like a CLI run.
// The CLI enables the file-reading hierarchy kinds; the service gates them.
var cliSpecOptions = qispec.Options{AllowFiles: true}

// parseQISpec parses 'Col=hier;Col=hier;…'.
func parseQISpec(spec string) ([]incognito.QI, error) {
	return qispec.ParseQI(spec, cliSpecOptions)
}

func parseHierarchy(spec string) (*incognito.Hierarchy, error) {
	return qispec.ParseHierarchy(spec, cliSpecOptions)
}

func parseAlgorithm(name string) (incognito.Algorithm, error) {
	return qispec.ParseAlgorithm(name)
}

func parseCriterion(name string) (incognito.Criterion, error) {
	return qispec.ParseCriterion(name)
}

// demoTable builds the paper's Patients example (Fig. 1) and its
// quasi-identifier.
func demoTable() (*incognito.Table, []incognito.QI, error) {
	table, err := incognito.NewTable(
		[]string{"Birthdate", "Sex", "Zipcode", "Disease"},
		[][]string{
			{"1/21/76", "Male", "53715", "Flu"},
			{"4/13/86", "Female", "53715", "Hepatitis"},
			{"2/28/76", "Male", "53703", "Brochitis"},
			{"1/21/76", "Male", "53703", "Broken Arm"},
			{"4/13/86", "Female", "53706", "Sprained Ankle"},
			{"2/28/76", "Female", "53706", "Hang Nail"},
		},
	)
	if err != nil {
		return nil, nil, err
	}
	qi := []incognito.QI{
		{Column: "Birthdate", Hierarchy: incognito.Suppression()},
		{Column: "Sex", Hierarchy: incognito.Taxonomy(map[string]string{"Male": "Person", "Female": "Person"})},
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(2)},
	}
	return table, qi, nil
}

// runDemo reproduces the paper's running example (Fig. 1 and Fig. 2).
func runDemo(ctx context.Context, o *options, ins instruments) error {
	table, qi, err := demoTable()
	if err != nil {
		return err
	}
	cfg, crit, err := o.config(ins)
	if err != nil {
		return err
	}
	res, err := incognito.AnonymizeContext(ctx, table, qi, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Patients table (Fig. 1), k=%d, algorithm %v\n", o.k, cfg.Algorithm)
	fmt.Printf("%d k-anonymous full-domain generalizations:\n", res.Len())
	for _, s := range res.Solutions() {
		fmt.Printf("  %-34s height=%d precision=%.3f\n", s.String(), s.Height(), s.Precision())
	}
	if o.stats {
		st := res.Stats()
		fmt.Printf("searched: %d nodes checked, %d marked, %d candidates, %d table scans, %d rollups\n",
			st.NodesChecked, st.NodesMarked, st.Candidates, st.TableScans, st.Rollups)
	}
	if best, ok := res.Best(crit); ok {
		fmt.Printf("\nminimal generalization %s releases:\n", best.String())
		view, err := best.Apply()
		if err != nil {
			return err
		}
		return view.WriteCSV(os.Stdout)
	}
	return nil
}
