// Package bench is the experiment harness behind §4 of the paper: it runs
// one (dataset, quasi-identifier size, k, algorithm) cell, measures elapsed
// time and the work counters, and formats the sweeps that regenerate each
// figure. cmd/bench drives it from the command line; the repository-root
// benchmark suite drives it from testing.B.
package bench

import (
	"context"
	"fmt"
	"time"

	"incognito/internal/baseline"
	"incognito/internal/core"
	"incognito/internal/dataset"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// Obs bundles the optional observability and resilience instruments a cell
// runs under: a span tracer, live progress counters, runtime-metrics
// histograms, a checkpointer (with an optional snapshot to resume from),
// and a memory-budget accountant. The zero value disables all of them;
// each field is independently optional (nil handles are no-ops), so
// callers opt into exactly the instruments they need. Instruments never
// change Solutions or Stats; Budget can (it degrades the run under memory
// pressure), which is the point.
type Obs struct {
	Tracer   *trace.Tracer
	Progress *telemetry.Progress
	Metrics  *telemetry.RunMetrics
	Check    *resilience.Checkpointer
	Resume   *resilience.Snapshot
	Budget   *resilience.Accountant
}

// Algo identifies one of the six algorithms compared in Fig. 10.
type Algo int

const (
	BottomUpNoRollup Algo = iota
	BottomUpRollup
	BinarySearch
	BasicIncognito
	CubeIncognito
	SuperRootsIncognito
)

// AllAlgos lists the algorithms in the legend order of Fig. 10.
var AllAlgos = []Algo{
	BottomUpNoRollup, BinarySearch, BottomUpRollup,
	BasicIncognito, CubeIncognito, SuperRootsIncognito,
}

// String names the algorithm as the paper's figure legends do.
func (a Algo) String() string {
	switch a {
	case BottomUpNoRollup:
		return "Bottom-Up (w/o rollup)"
	case BottomUpRollup:
		return "Bottom-Up (w/ rollup)"
	case BinarySearch:
		return "Binary Search"
	case BasicIncognito:
		return "Basic Incognito"
	case CubeIncognito:
		return "Cube Incognito"
	case SuperRootsIncognito:
		return "Super-roots Incognito"
	}
	return "unknown"
}

// ParseAlgo resolves a short algorithm name used by command-line flags.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "bottomup":
		return BottomUpNoRollup, nil
	case "bottomup-rollup":
		return BottomUpRollup, nil
	case "binary":
		return BinarySearch, nil
	case "basic":
		return BasicIncognito, nil
	case "cube":
		return CubeIncognito, nil
	case "superroots":
		return SuperRootsIncognito, nil
	}
	return 0, fmt.Errorf("bench: unknown algorithm %q (want bottomup, bottomup-rollup, binary, basic, cube, or superroots)", s)
}

// Measurement is one experiment cell.
type Measurement struct {
	Dataset     string
	Algo        Algo
	QISize      int
	K           int64
	Parallelism int // the Input.Parallelism knob the cell ran with
	Workers     int // the effective worker bound (knob clamped to GOMAXPROCS)
	Elapsed     time.Duration
	BuildTime   time.Duration // cube pre-computation, separated as in Fig. 12
	AnonTime    time.Duration // anonymization excluding cube build
	Stats       core.Stats
	Solutions   int
	MinHeight   int
}

// Run executes one cell: the given algorithm on the first qiSize attributes
// of the dataset at anonymity parameter k, strictly sequentially — the
// reference configuration every paper figure is regenerated with.
func Run(d *dataset.Dataset, qiSize int, k int64, algo Algo) (Measurement, error) {
	return RunParallel(d, qiSize, k, algo, 1)
}

// RunParallel is Run with an explicit intra-run parallelism bound
// (0 = GOMAXPROCS, 1 = sequential, n = at most n workers). Solutions and
// Stats are identical at every setting; only Elapsed changes.
func RunParallel(d *dataset.Dataset, qiSize int, k int64, algo Algo, parallelism int) (Measurement, error) {
	return RunCell(context.Background(), Obs{}, d, qiSize, k, algo, parallelism)
}

// RunCell is the fully instrumented cell runner: RunParallel with a
// cancellation context and an optional observability bundle (the zero Obs
// disables all instruments). Cancelling ctx mid-cell returns an error
// wrapping ctx.Err().
func RunCell(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, algo Algo, parallelism int) (Measurement, error) {
	return RunCellKernel(ctx, obs, d, qiSize, k, algo, parallelism, false)
}

// RunCellKernel is RunCell with an explicit frequency-set kernel selection:
// sparseKernel forces the reference sparse map representation instead of
// the adaptive dense mixed-radix kernel. Solutions and Stats are identical
// either way; the -experiment kernel sweep measures the difference.
func RunCellKernel(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, algo Algo, parallelism int, sparseKernel bool) (Measurement, error) {
	cols, hs, err := d.QISubset(qiSize)
	if err != nil {
		return Measurement{}, err
	}
	in := core.NewInput(d.Table, cols, hs, k, 0)
	in.Parallelism = parallelism
	in.SparseKernel = sparseKernel
	in.Ctx = ctx
	in.Trace = obs.Tracer
	in.Progress = obs.Progress
	in.Metrics = obs.Metrics
	in.Budget = obs.Budget
	// Checkpoint/resume applies to the Incognito-variant cells only (the
	// baselines have no resumable frontier), and a resume snapshot is handed
	// to exactly the cell it was written by — a sweep that was killed mid-cell
	// reruns the earlier cells fresh and resumes the interrupted one.
	if algo == BasicIncognito || algo == SuperRootsIncognito || algo == CubeIncognito {
		in.Check = obs.Check
		if obs.Resume != nil && in.SnapshotMatches(obs.Resume, algo.String()) {
			in.Resume = obs.Resume
		}
	}
	m := Measurement{Dataset: d.Name, Algo: algo, QISize: qiSize, K: k,
		Parallelism: parallelism, Workers: in.Workers()}

	cell := obs.Tracer.Start("cell")
	cell.SetAttr("dataset", d.Name)
	cell.SetAttr("qi_size", qiSize)
	cell.SetAttr("k", k)
	cell.SetAttr("algorithm", algo.String())
	in.Span = cell // nest the run's phase spans under this cell
	defer cell.End()

	start := time.Now()
	switch algo {
	case BottomUpNoRollup, BottomUpRollup:
		res, err := baseline.BottomUp(in, algo == BottomUpRollup)
		if err != nil {
			return m, err
		}
		m.Stats, m.Solutions, m.MinHeight = res.Stats, len(res.Solutions), res.MinHeight()
	case BinarySearch:
		res, err := baseline.BinarySearch(in)
		if err != nil {
			return m, err
		}
		m.Stats, m.MinHeight = res.Stats, res.Height
		if res.Solution != nil {
			m.Solutions = 1
		}
	case BasicIncognito, SuperRootsIncognito:
		v := core.Basic
		if algo == SuperRootsIncognito {
			v = core.SuperRoots
		}
		res, err := core.Run(in, v)
		if err != nil {
			return m, err
		}
		m.Stats, m.Solutions, m.MinHeight = res.Stats, len(res.Solutions), res.MinHeight()
	case CubeIncognito:
		buildStart := time.Now()
		cube, err := buildCube(&in)
		m.BuildTime = time.Since(buildStart)
		if err != nil {
			return m, err
		}
		if err := in.Err(); err != nil {
			return m, fmt.Errorf("bench: cube build cancelled: %w", err)
		}
		anonStart := time.Now()
		res, err := core.RunWithCube(in, cube)
		if err != nil {
			return m, err
		}
		m.AnonTime = time.Since(anonStart)
		m.Stats, m.Solutions, m.MinHeight = res.Stats, len(res.Solutions), res.MinHeight()
		m.Stats.Add(cube.BuildStats)
	default:
		return m, fmt.Errorf("bench: unknown algorithm %d", algo)
	}
	m.Elapsed = time.Since(start)
	if algo != CubeIncognito {
		m.AnonTime = m.Elapsed
	}
	return m, nil
}

// buildCube runs the cube pre-computation under a recover guard: a panic on
// a wave worker surfaces from BuildCube as a typed re-panic, converted here
// to a *resilience.PanicError so the cell reports it like any other error.
func buildCube(in *core.Input) (cube *core.CubeIndex, err error) {
	defer func() {
		if r := recover(); r != nil {
			cube, err = nil, resilience.AsPanicError("cube_build", r)
		}
	}()
	return core.BuildCube(in), nil
}
