// Package bench is the experiment harness behind §4 of the paper: it runs
// one (dataset, quasi-identifier size, k, algorithm) cell and measures
// elapsed time and the work counters. Every comparison experiment — the
// paper's own evaluation (Figs. 10–12 and the §4.2.1 table: each algorithm
// against Basic Incognito) and, beyond the paper, the parallel, kernel and
// incremental experiments — times a reference run against a subject run of
// each cell and reports in one schema (Report, Cell) that cmd/benchcheck
// gates. cmd/bench drives it from the command line; the repository-root
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
// histograms, and a memory-budget accountant. The zero value disables all
// of them; each field is independently optional (nil handles are no-ops),
// so callers opt into exactly the instruments they need. Instruments never
// change Solutions or Stats; Budget can (it degrades the run under memory
// pressure), which is the point.
type Obs struct {
	Tracer   *trace.Tracer
	Progress *telemetry.Progress
	Metrics  *telemetry.RunMetrics
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

// Measurement is one run of an algorithm.
type Measurement struct {
	Workers   int // the worker bound the run used (core.Input.Workers)
	Elapsed   time.Duration
	BuildTime time.Duration // cube pre-computation, separated as in Fig. 12
	AnonTime  time.Duration // anonymization excluding cube build
	Stats     core.Stats
	// Solutions are the level vectors found, sorted by height then
	// lexicographically: every k-anonymous generalization, or for Binary
	// Search the one it returns.
	Solutions [][]int
	MinHeight int
}

// Run executes one cell: the given algorithm on the first qiSize attributes
// of the dataset at anonymity parameter k, with at most parallelism workers
// (0 = GOMAXPROCS, 1 = sequential), under ctx and the instruments in obs
// (the zero Obs disables them all). Solutions and Stats are the same at
// every parallelism; only the elapsed time changes. Cancelling ctx mid-cell
// returns an error wrapping ctx.Err().
func Run(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, algo Algo, parallelism int) (Measurement, error) {
	cols, hs, err := d.QISubset(qiSize)
	if err != nil {
		return Measurement{}, err
	}
	in := core.NewInput(d.Table, cols, hs, k, 0)
	in.Parallelism = parallelism
	in.Ctx = ctx
	in.Trace = obs.Tracer
	in.Progress = obs.Progress
	in.Metrics = obs.Metrics
	in.Budget = obs.Budget
	m := Measurement{Workers: in.Workers()}

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
		m.Stats, m.Solutions, m.MinHeight = res.Stats, res.Solutions, res.MinHeight()
	case BinarySearch:
		res, err := baseline.BinarySearch(in)
		if err != nil {
			return m, err
		}
		m.Stats, m.MinHeight = res.Stats, res.Height
		if res.Solution != nil {
			m.Solutions = [][]int{res.Solution}
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
		m.Stats, m.Solutions, m.MinHeight = res.Stats, res.Solutions, res.MinHeight()
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
		m.Stats, m.Solutions, m.MinHeight = res.Stats, res.Solutions, res.MinHeight()
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
