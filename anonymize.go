package incognito

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"incognito/internal/baseline"
	"incognito/internal/core"
	"incognito/internal/hierarchy"
	"incognito/internal/metrics"
	"incognito/internal/relation"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// Tracer records a span per pipeline phase — candidate generation per
// subset size, each breadth-first family search, table-scan-vs-rollup
// decisions, cube pre-computation waves, and the baselines — with
// monotonic wall times and work counters, exported as a JSON span tree
// (WriteJSON). A nil *Tracer disables tracing at zero cost; Solutions and
// Stats are bit-identical with tracing on or off. See internal/trace.
type Tracer = trace.Tracer

// NewTracer returns an enabled tracer to pass in Config.Tracer.
func NewTracer() *Tracer { return trace.New() }

// Span is one timed phase of a traced run. Embedders that drive several
// runs under one tracer (the daemon's per-job traces, for example) open a
// parent span themselves and pass it in Config.ParentSpan so each run's
// phases nest under it. All methods no-op on a nil *Span.
type Span = trace.Span

// Progress is a live, concurrency-safe view of how far a run has got:
// atomic counters (nodes visited, candidate total, tuples scanned, table
// scans, rollups) bumped from the hot paths and readable at any time via
// Snapshot, from any goroutine — the hook for progress bars, periodic log
// lines, and the telemetry endpoint. A nil *Progress (the default)
// disables reporting at zero cost; Solutions and Stats are bit-identical
// either way. See internal/telemetry.
type Progress = telemetry.Progress

// NewProgress returns an enabled progress handle to pass in
// Config.Progress.
func NewProgress() *Progress { return telemetry.NewProgress() }

// RunMetrics feeds runtime-telemetry histograms (frequency-set sizes,
// rollup fan-in) from a run's hot paths. Obtain one from a telemetry
// registry; nil disables the observations. Not to be confused with the
// data-quality metrics on Solution (Precision, Discernibility, ...).
type RunMetrics = telemetry.RunMetrics

// PanicError is a worker panic converted into an ordinary error: a panic on
// any goroutine of a parallel phase (family searches, scan shards, cube and
// materialization waves) drains its siblings and surfaces as a *PanicError
// whose Site names the span path of the panicking worker, with the original
// panic value and stack attached.
type PanicError = resilience.PanicError

// Checkpointer writes versioned, checksummed search-frontier snapshots with
// atomic replace semantics; pass one in Config.Checkpoint. Create with
// NewCheckpointer, reload a snapshot with LoadCheckpoint.
type Checkpointer = resilience.Checkpointer

// Snapshot is one saved checkpoint of a run, as written by a Checkpointer
// and reloaded by LoadCheckpoint; pass it in Config.Resume.
type Snapshot = resilience.Snapshot

// MemoryAccountant tracks the run's long-lived frequency-set bytes against
// a soft budget and drives the degradation ladder (see Config.Budget).
// Create one with NewMemoryBudget. Its counters — DenseFallbacks, Sheds,
// Aborted — are the degradation telemetry CLIs export.
type MemoryAccountant = resilience.Accountant

// ErrDegraded is returned (wrapped) by a run that hit the memory budget's
// hard stop: the Result carries the solutions proven so far rather than the
// complete set. Test with errors.Is.
var ErrDegraded = resilience.ErrDegraded

// Fingerprint identifies a run's exact problem instance: the algorithm,
// k, suppression threshold, lattice heights, row count, and an FNV-1a hash
// of the quasi-identifier columns. Checkpoints are pinned to it so a
// snapshot cannot resume against different data, and the incognitod result
// cache builds its key from it (see RunFingerprint). Key renders it as a
// compact stable string; Equal compares two instances.
type Fingerprint = resilience.Fingerprint

// RunFingerprint computes the Fingerprint an AnonymizeContext run over
// (t, qi, cfg) would carry, without running the search. It validates cfg
// and binds the quasi-identifier exactly like AnonymizeContext does, so it
// returns the same validation errors on a bad configuration, column or
// hierarchy. The cost is one pass over the QI columns (the table hash).
//
// Note for cache builders: the fingerprint covers the QI columns and the
// hierarchy HEIGHTS only. Two requests over tables that differ in non-QI
// columns, or with different hierarchy contents of equal height, share a
// fingerprint while producing different releases — a result cache must
// extend the key with hashes of the full dataset and of the hierarchy
// definitions, as internal/service does.
func RunFingerprint(t *Table, qi []QI, cfg Config) (Fingerprint, error) {
	in, err := cfg.input(context.Background(), t, qi)
	if err != nil {
		return Fingerprint{}, err
	}
	if in.QI, _, err = bindQI(t, qi); err != nil {
		return Fingerprint{}, err
	}
	return in.Fingerprint(cfg.Algorithm.String()), nil
}

// NewCheckpointer returns a Checkpointer writing to path; the empty path
// returns nil, which disables checkpointing.
func NewCheckpointer(path string) *Checkpointer { return resilience.NewCheckpointer(path) }

// LoadCheckpoint reads, verifies and decodes a snapshot file written by a
// Checkpointer.
func LoadCheckpoint(path string) (*Snapshot, error) { return resilience.Load(path) }

// NewMemoryBudget returns an accountant enforcing the given soft budget in
// bytes; non-positive budgets return nil, which disables budgeting.
func NewMemoryBudget(bytes int64) *MemoryAccountant { return resilience.NewAccountant(bytes) }

// QI names one quasi-identifier attribute: a table column and the
// generalization hierarchy over it. The order of the QI slice passed to
// Anonymize is the canonical attribute order of solutions.
type QI struct {
	Column    string
	Hierarchy *Hierarchy
}

// Algorithm selects the search algorithm. All of them are exact; they
// differ in cost and in whether they return the complete solution set.
type Algorithm int

const (
	// BasicIncognito is the paper's core contribution (Fig. 8): a priori
	// candidate pruning over quasi-identifier subsets plus frequency-set
	// rollup. Returns the complete solution set.
	BasicIncognito Algorithm = iota
	// SuperRootsIncognito adds the §3.3.1 optimization: one table scan per
	// candidate family instead of one per root. Complete.
	SuperRootsIncognito
	// CubeIncognito pre-computes all zero-generalization frequency sets
	// bottom-up and never rescans the table during the search (§3.3.2).
	// Complete.
	CubeIncognito
	// BottomUp is the exhaustive baseline of §2.2 without rollup: a
	// breadth-first search of the full lattice, one scan per checked node.
	// Complete.
	BottomUp
	// BottomUpRollup is BottomUp with the rollup optimization. Complete.
	BottomUpRollup
	// BinarySearch is Samarati's algorithm [14]: binary search on
	// generalization height. Returns a single height-minimal solution, NOT
	// the complete set.
	BinarySearch
	// MaterializedIncognito implements the paper's §7 future-work proposal:
	// strategic partial-cube materialization under a memory budget
	// (Config.MaterializeBudget, in frequency-set groups), selected with
	// Harinarayan-style greedy view selection. Budget 0 behaves like
	// BasicIncognito; a huge budget behaves like CubeIncognito. Complete.
	MaterializedIncognito
)

// String names the algorithm as the paper's figures do.
func (a Algorithm) String() string {
	switch a {
	case BasicIncognito:
		return "Basic Incognito"
	case SuperRootsIncognito:
		return "Super-roots Incognito"
	case CubeIncognito:
		return "Cube Incognito"
	case BottomUp:
		return "Bottom-Up (w/o rollup)"
	case BottomUpRollup:
		return "Bottom-Up (w/ rollup)"
	case BinarySearch:
		return "Binary Search"
	case MaterializedIncognito:
		return "Materialized Incognito"
	}
	return "unknown"
}

// Config carries the anonymization parameters.
type Config struct {
	// K is the anonymity parameter: every released quasi-identifier value
	// combination must be shared by at least K tuples. Required, ≥ 1.
	K int
	// MaxSuppressed is the tuple-suppression threshold of §2.1: up to this
	// many outlier tuples may be removed instead of generalizing further.
	MaxSuppressed int
	// Algorithm defaults to BasicIncognito.
	Algorithm Algorithm
	// MaterializeBudget is the partial-cube size budget (in frequency-set
	// groups) used by MaterializedIncognito and ignored otherwise.
	MaterializeBudget int
	// Parallelism bounds intra-run concurrency: 0 (the default) uses every
	// core (GOMAXPROCS), 1 runs strictly sequentially, and n > 1 uses at
	// most n workers. Base-table scans are sharded into row ranges and the
	// independent per-attribute-subset candidate graphs of each search
	// iteration run concurrently; Solutions and Stats are identical at
	// every setting. Negative values are rejected.
	Parallelism int
	// Tracer, when non-nil, records the run's span tree (per-phase wall
	// times and work counters). nil — the default — disables tracing with
	// zero overhead on the hot paths.
	Tracer *Tracer
	// ParentSpan, when non-nil (it must then belong to Tracer), becomes
	// the parent of every phase span this run records, instead of the
	// tracer's top level — the hook for embedders that trace queueing or
	// several runs around one anonymization. nil keeps phases top-level.
	ParentSpan *Span
	// Progress, when non-nil, receives live progress updates (current
	// phase, nodes visited/total, tuples scanned, rollups) as the search
	// runs. nil disables progress reporting with zero overhead.
	Progress *Progress
	// Metrics, when non-nil, receives runtime-telemetry distribution
	// observations (frequency-set sizes, rollup fan-in). nil disables them
	// with zero overhead.
	Metrics *RunMetrics
	// Checkpoint, when non-nil, saves the search frontier after every
	// breadth-first level, candidate family, and subset-size iteration, so a
	// killed run can resume with Resume. Only the Incognito variants
	// checkpoint; combining it with a baseline algorithm is an error. nil
	// disables checkpointing with zero overhead.
	Checkpoint *Checkpointer
	// Resume, when non-nil, restarts the run from a snapshot written by a
	// previous run's Checkpoint. The snapshot's fingerprint (table, QI
	// hierarchies, K, suppression threshold, algorithm) must match this
	// configuration; the resumed run's Solutions and Stats are bit-identical
	// to an uninterrupted run's.
	Resume *Snapshot
	// Budget, when non-nil, is the run's memory accountant, built with
	// NewMemoryBudget: a soft limit on the estimated bytes held in
	// long-lived frequency sets. Over the soft budget the run degrades
	// instead of growing: dense kernels fall back to sparse and
	// materialization waves are shed. Past twice the budget the run stops
	// and returns the solutions proven so far with an error wrapping
	// ErrDegraded. The accountant's counters can be handed to a telemetry
	// registry. nil (the default) disables budgeting.
	Budget *MemoryAccountant
	// RetainState, when true, makes the run capture a RunState — the
	// base-domain frequency groups plus one compact per-node record — that
	// AnonymizeDelta can later replay against an edited table. Only
	// BasicIncognito supports it. Solutions and Stats are bit-identical
	// with capture on or off; the cost is one extra pass over each checked
	// node's frequency set. Retrieve the state with Result.State and
	// persist it with SaveRunState. A resumed run (Config.Resume) retains
	// a state missing records for the nodes validated before the kill; a
	// later delta run simply revalidates those nodes.
	RetainState bool
}

// Stats reports how much work a run did, mirroring the measurements of §4.
type Stats struct {
	NodesChecked int // generalization nodes whose k-anonymity was tested explicitly
	NodesMarked  int // nodes skipped via the generalization property
	Candidates   int // candidate nodes across all iterations
	TableScans   int // frequency sets built by scanning the table
	Rollups      int // frequency sets derived from other frequency sets
}

// Result holds the outcome of Anonymize: the k-anonymous full-domain
// generalizations found, in height order.
type Result struct {
	in        core.Input
	qiNames   []string
	heights   []int
	solutions [][]int
	stats     Stats
	complete  bool
	state     *RunState
}

// State returns the captured run state, or nil unless the run was made
// with Config.RetainState (or by AnonymizeDelta, which always retains the
// follow-on state). Persist it with SaveRunState and feed it to
// AnonymizeDelta to re-anonymize after an edit.
func (r *Result) State() *RunState { return r.state }

// Anonymize searches for k-anonymous full-domain generalizations of t with
// respect to the given quasi-identifier. With any algorithm other than
// BinarySearch the result contains every solution; BinarySearch yields a
// single height-minimal one.
func Anonymize(t *Table, qi []QI, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, qi, cfg)
}

// AnonymizeContext is Anonymize with a cancellation context: the search
// checks ctx at phase boundaries (search iterations, queue pops, cube
// waves, lattice strata, binary-search probes) and inside the parallel
// worker loops, returning promptly with an error wrapping ctx.Err() once
// it is done. A nil ctx means context.Background.
func AnonymizeContext(ctx context.Context, t *Table, qi []QI, cfg Config) (*Result, error) {
	in, err := cfg.input(ctx, t, qi)
	if err != nil {
		return nil, err
	}
	cfg.Tracer.SetAttr("algorithm", cfg.Algorithm.String())
	cfg.Tracer.SetAttr("k", cfg.K)
	cfg.Tracer.SetAttr("parallelism", cfg.Parallelism)
	attrs, names, err := bindQI(t, qi)
	if err != nil {
		return nil, err
	}
	in.QI = attrs

	res := &Result{in: in, qiNames: names, heights: in.Heights(), complete: true}
	// degraded salvages a budget-aborted run: the partial Result (the
	// solutions proven before the hard stop) rides along with the error so
	// callers that errors.Is(err, ErrDegraded) can still use it.
	degraded := func(r *core.Result, err error) (*Result, error) {
		if r == nil || !errors.Is(err, ErrDegraded) {
			return nil, err
		}
		res.solutions = r.Solutions
		res.stats = wrapStats(r.Stats)
		res.complete = false
		return res, err
	}
	switch cfg.Algorithm {
	case BasicIncognito, SuperRootsIncognito, CubeIncognito:
		variant := map[Algorithm]core.Variant{
			BasicIncognito:      core.Basic,
			SuperRootsIncognito: core.SuperRoots,
			CubeIncognito:       core.Cube,
		}[cfg.Algorithm]
		r, err := core.Run(in, variant)
		if err != nil {
			return degraded(r, err)
		}
		res.solutions = r.Solutions
		res.stats = wrapStats(r.Stats)
		if in.Capture != nil {
			res.state = core.RunStateOf(&in, in.Capture, cfg.Algorithm.String())
		}
	case BottomUp, BottomUpRollup:
		r, err := baseline.BottomUp(in, cfg.Algorithm == BottomUpRollup)
		if err != nil {
			return nil, err
		}
		res.solutions = r.Solutions
		res.stats = wrapStats(r.Stats)
	case BinarySearch:
		r, err := baseline.BinarySearch(in)
		if err != nil {
			return nil, err
		}
		if r.Solution != nil {
			res.solutions = [][]int{r.Solution}
		}
		res.stats = wrapStats(r.Stats)
		res.complete = false
	case MaterializedIncognito:
		mat, err := buildMaterialized(&in, int64(cfg.MaterializeBudget))
		if err != nil {
			return nil, err
		}
		r, err := core.RunMaterialized(in, mat)
		if err != nil {
			if r != nil {
				r.Stats.Add(mat.BuildStats)
			}
			return degraded(r, err)
		}
		res.solutions = r.Solutions
		st := r.Stats
		st.Add(mat.BuildStats)
		res.stats = wrapStats(st)
	default:
		return nil, fmt.Errorf("incognito: unknown algorithm %d", cfg.Algorithm)
	}
	return res, nil
}

// input validates cfg for a run over t and qi and maps it onto the
// engine's Input. It is the one place each Config field is checked and
// translated, so AnonymizeContext, AnonymizeDelta and RunFingerprint
// refuse the same configurations with the same errors. The caller binds
// the QI (bindQI) and sets what only its entry point decides. A nil ctx
// means context.Background.
func (cfg Config) input(ctx context.Context, t *Table, qi []QI) (core.Input, error) {
	if t == nil {
		return core.Input{}, fmt.Errorf("incognito: nil table")
	}
	if len(qi) == 0 {
		return core.Input{}, fmt.Errorf("incognito: empty quasi-identifier")
	}
	if cfg.K < 1 {
		return core.Input{}, fmt.Errorf("incognito: K must be at least 1, got %d", cfg.K)
	}
	if cfg.MaxSuppressed < 0 {
		return core.Input{}, fmt.Errorf("incognito: negative MaxSuppressed %d", cfg.MaxSuppressed)
	}
	if cfg.Parallelism < 0 {
		return core.Input{}, fmt.Errorf("incognito: negative Parallelism %d (0 = all cores, 1 = sequential)", cfg.Parallelism)
	}
	switch cfg.Algorithm {
	case BottomUp, BottomUpRollup, BinarySearch:
		if cfg.Checkpoint != nil || cfg.Resume != nil {
			return core.Input{}, fmt.Errorf("incognito: checkpoint/resume is only supported by the Incognito variants, not %s", cfg.Algorithm)
		}
	}
	var capture *core.StateCapture
	if cfg.RetainState {
		if cfg.Algorithm != BasicIncognito {
			return core.Input{}, fmt.Errorf("incognito: RetainState is only supported by %s, not %s", BasicIncognito, cfg.Algorithm)
		}
		capture = &core.StateCapture{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return core.Input{
		Table:       t.rel,
		K:           int64(cfg.K),
		MaxSuppress: int64(cfg.MaxSuppressed),
		Parallelism: cfg.Parallelism,
		Ctx:         ctx,
		Trace:       cfg.Tracer,
		Span:        cfg.ParentSpan,
		Progress:    cfg.Progress,
		Metrics:     cfg.Metrics,
		Check:       cfg.Checkpoint,
		Resume:      cfg.Resume,
		Budget:      cfg.Budget,
		Capture:     capture,
	}, nil
}

// bindQI resolves the public QI descriptions against the table: column
// names to indexes, hierarchy builders to hierarchies bound to the
// columns' dictionaries.
func bindQI(t *Table, qi []QI) ([]core.QIAttr, []string, error) {
	attrs, names, _, err := bindQISpecs(t, qi)
	return attrs, names, err
}

// bindQISpecs is bindQI that also returns the hierarchy specs it built,
// for callers that bind the same specs again (AnonymizeDelta binds them to
// the delta rows too): building a spec can read a file, binding cannot.
func bindQISpecs(t *Table, qi []QI) ([]core.QIAttr, []string, []*hierarchy.Spec, error) {
	attrs := make([]core.QIAttr, 0, len(qi))
	names := make([]string, len(qi))
	specs := make([]*hierarchy.Spec, len(qi))
	for i, q := range qi {
		col := t.rel.ColumnIndex(q.Column)
		if col < 0 {
			return nil, nil, nil, fmt.Errorf("incognito: table has no column %q", q.Column)
		}
		if q.Hierarchy == nil {
			return nil, nil, nil, fmt.Errorf("incognito: attribute %q has no hierarchy", q.Column)
		}
		if q.Hierarchy.err != nil {
			return nil, nil, nil, fmt.Errorf("incognito: attribute %q: %w", q.Column, q.Hierarchy.err)
		}
		specs[i] = q.Hierarchy.build(q.Column)
		h, err := specs[i].Bind(t.rel.Dict(col))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("incognito: attribute %q: %w", q.Column, err)
		}
		attrs = append(attrs, core.QIAttr{Col: col, H: h})
		names[i] = q.Column
	}
	return attrs, names, specs, nil
}

// buildMaterialized runs the view-selection phase under a recover guard:
// a panic on a materialization-wave worker surfaces from MaterializeBudget
// as a typed re-panic, converted here to a *PanicError.
func buildMaterialized(in *core.Input, budget int64) (mat *core.MaterializedSet, err error) {
	defer func() {
		if r := recover(); r != nil {
			mat, err = nil, resilience.AsPanicError("run", r)
		}
	}()
	return core.MaterializeBudget(in, budget), nil
}

func wrapStats(s core.Stats) Stats {
	return Stats{
		NodesChecked: s.NodesChecked,
		NodesMarked:  s.NodesMarked,
		Candidates:   s.Candidates,
		TableScans:   s.TableScans,
		Rollups:      s.Rollups,
	}
}

// Len returns the number of solutions found.
func (r *Result) Len() int { return len(r.solutions) }

// Complete reports whether the result holds every k-anonymous full-domain
// generalization (false only for BinarySearch).
func (r *Result) Complete() bool { return r.complete }

// Stats returns the work counters of the run.
func (r *Result) Stats() Stats { return r.stats }

// Solutions returns all solutions in height order.
func (r *Result) Solutions() []Solution {
	out := make([]Solution, len(r.solutions))
	for i, levels := range r.solutions {
		out[i] = Solution{r: r, levels: levels}
	}
	return out
}

// Best returns the best solution under the given criterion, or false if
// there are no solutions. Ties keep the earlier solution in canonical
// (height, then lexicographic) order, so Best is deterministic.
func (r *Result) Best(c Criterion) (Solution, bool) {
	if len(r.solutions) == 0 {
		return Solution{}, false
	}
	if c == nil {
		c = MinHeight()
	}
	best := Solution{r: r, levels: r.solutions[0]}
	for _, levels := range r.solutions[1:] {
		s := Solution{r: r, levels: levels}
		if c(s, best) {
			best = s
		}
	}
	return best, true
}

// Solution is one k-anonymous full-domain generalization.
type Solution struct {
	r      *Result
	levels []int
}

// Levels returns the per-attribute generalization levels, in QI order.
func (s Solution) Levels() []int { return append([]int(nil), s.levels...) }

// Height returns the generalization height (sum of levels).
func (s Solution) Height() int { return metrics.Height(s.levels) }

// Columns returns the quasi-identifier column names, in QI order.
func (s Solution) Columns() []string { return append([]string(nil), s.r.qiNames...) }

// LevelNames renders the solution with the paper's domain names, e.g.
// "<Birthdate1, Sex0, Zipcode2>".
func (s Solution) LevelNames() []string {
	out := make([]string, len(s.levels))
	for i, l := range s.levels {
		out[i] = s.r.in.QI[i].H.LevelName(l)
	}
	return out
}

// String renders the solution like the paper's node notation.
func (s Solution) String() string {
	return "<" + strings.Join(s.LevelNames(), ", ") + ">"
}

// Precision is Sweeney's Prec metric for this solution: 1 means no
// generalization, 0 means full suppression.
func (s Solution) Precision() float64 {
	p, err := metrics.Precision(s.levels, s.r.heights)
	if err != nil {
		panic(err) // unreachable: solutions are validated level vectors
	}
	return p
}

// Discernibility is the Bayardo–Agrawal DM of the released view (lower is
// better).
func (s Solution) Discernibility() int64 {
	return metrics.Discernibility(s.freq(), s.r.in.K)
}

// AvgClassSize is the mean size of released equivalence classes.
func (s Solution) AvgClassSize() float64 {
	return metrics.AvgClassSize(s.freq(), s.r.in.K)
}

// Suppressed is the number of outlier tuples the release would drop.
func (s Solution) Suppressed() int64 {
	return metrics.SuppressedTuples(s.freq(), s.r.in.K)
}

func (s Solution) freq() *relation.FreqSet {
	dims := make([]int, len(s.levels))
	for i := range dims {
		dims[i] = i
	}
	return s.r.in.ScanFreq(dims, s.levels)
}

// Apply materializes the released view: quasi-identifier values are
// generalized to the solution's levels, other columns pass through, and
// outlier tuples (at most MaxSuppressed) are suppressed.
func (s Solution) Apply() (*Table, error) {
	rel, err := s.r.in.Apply(s.levels)
	if err != nil {
		return nil, err
	}
	return &Table{rel: rel}, nil
}
