package bench

// This file is the kernel experiment: the dense mixed-radix frequency-set
// kernel measured against the sparse map reference, end-to-end (whole
// algorithm runs with the kernel forced each way) and in isolation (scan
// and rollup microbenchmarks on dense-eligible generalized layouts).
// Counters, group counts, and the dense allocs/op pin are deterministic
// and gated in CI; timings and speedups are informational.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"incognito/internal/dataset"
	"incognito/internal/hierarchy"
	"incognito/internal/relation"
)

// KernelCell is one end-to-end kernel comparison: the same (dataset, QI
// size, k, algorithm) cell run with the sparse kernel forced and with the
// adaptive dense kernel, with a cross-check that both produced identical
// results.
type KernelCell struct {
	Dataset  string  `json:"dataset"`
	Rows     int     `json:"rows"`
	QISize   int     `json:"qi_size"`
	K        int64   `json:"k"`
	Algo     string  `json:"algo"`
	SparseMS float64 `json:"sparse_ms"`
	DenseMS  float64 `json:"dense_ms"`
	Speedup  float64 `json:"speedup"`
	// The sparse run's results and work counters — deterministic for a
	// given workload, pinned by the CI kernel-regression gate.
	Solutions    int `json:"solutions"`
	MinHeight    int `json:"min_height"`
	NodesChecked int `json:"nodes_checked"`
	NodesMarked  int `json:"nodes_marked"`
	Candidates   int `json:"candidates"`
	TableScans   int `json:"table_scans"`
	Rollups      int `json:"rollups"`
	// Identical reports whether the dense run reproduced the sparse run's
	// solution count, minimum height, and every Stats counter — the
	// kernel's bit-identical-results guarantee.
	Identical bool `json:"identical"`
}

// KernelMicro is one microbenchmark row: the same scan or rollup executed
// by both kernels on a dense-eligible generalized layout of the dataset's
// quasi-identifier.
type KernelMicro struct {
	Op      string `json:"op"` // "scan" or "rollup"
	Dataset string `json:"dataset"`
	Rows    int    `json:"rows"`
	QISize  int    `json:"qi_size"`
	// Levels is the generalization the operation runs at (for "rollup",
	// the source levels; TargetLevels is where it rolls up to).
	Levels       []int `json:"levels"`
	TargetLevels []int `json:"target_levels,omitempty"`
	// Cells is the mixed-radix cell count of the result layout; the row is
	// dense-eligible when relation.DenseEligible accepts it for this input
	// size.
	Cells         int64   `json:"cells"`
	DenseEligible bool    `json:"dense_eligible"`
	Groups        int     `json:"groups"` // distinct result groups (deterministic)
	SparseMS      float64 `json:"sparse_ms"`
	DenseMS       float64 `json:"dense_ms"`
	Speedup       float64 `json:"speedup"`
	// DenseAddAllocsPerOp is an AllocsPerRun-style pin on the dense kernel's
	// per-tuple hot path (Add on an existing dense set): it must stay 0.
	DenseAddAllocsPerOp float64 `json:"dense_add_allocs_per_op"`
	// Identical reports whether both kernels produced the same groups, the
	// same counts, and the same EachSorted order.
	Identical bool `json:"identical"`
}

// KernelReport is the JSON document cmd/bench -experiment kernel emits
// (recorded at the repo root as BENCH_kernel.json).
type KernelReport struct {
	GOMAXPROCS    int           `json:"gomaxprocs"`
	DenseMaxCells int64         `json:"dense_max_cells"`
	Cells         []KernelCell  `json:"cells"`
	Micro         []KernelMicro `json:"micro"`
}

// Kernel runs the end-to-end kernel comparison for each algorithm on one
// (dataset, QI size, k) workload: every cell sequentially with the sparse
// kernel forced, then with the adaptive dense kernel, back to back.
func Kernel(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, algos []Algo, progress Progress) ([]KernelCell, error) {
	var cells []KernelCell
	for _, a := range algos {
		sparse, err := RunCellKernel(ctx, obs, d, qiSize, k, a, 1, true)
		if err != nil {
			return nil, err
		}
		dense, err := RunCellKernel(ctx, obs, d, qiSize, k, a, 1, false)
		if err != nil {
			return nil, err
		}
		cell := KernelCell{
			Dataset:      d.Name,
			Rows:         d.Table.NumRows(),
			QISize:       qiSize,
			K:            k,
			Algo:         a.String(),
			SparseMS:     float64(sparse.Elapsed.Microseconds()) / 1000,
			DenseMS:      float64(dense.Elapsed.Microseconds()) / 1000,
			Solutions:    sparse.Solutions,
			MinHeight:    sparse.MinHeight,
			NodesChecked: sparse.Stats.NodesChecked,
			NodesMarked:  sparse.Stats.NodesMarked,
			Candidates:   sparse.Stats.Candidates,
			TableScans:   sparse.Stats.TableScans,
			Rollups:      sparse.Stats.Rollups,
			Identical: sparse.Solutions == dense.Solutions &&
				sparse.MinHeight == dense.MinHeight &&
				sparse.Stats == dense.Stats,
		}
		if dense.Elapsed > 0 {
			cell.Speedup = float64(sparse.Elapsed) / float64(dense.Elapsed)
		}
		progress.Log("%s | QID=%d k=%d | %-22s | sparse %v, dense %v (%.2fx, identical=%v)",
			d.Name, qiSize, k, a, sparse.Elapsed.Round(time.Millisecond),
			dense.Elapsed.Round(time.Millisecond), cell.Speedup, cell.Identical)
		cells = append(cells, cell)
	}
	return cells, nil
}

// kernelLayout describes one generalized layout of the quasi-identifier:
// table columns, recode tables, per-column cardinalities, and levels.
type kernelLayout struct {
	cols   []int
	levels []int
	recode [][]int32
	card   []int
	cells  int64
}

// generalizedLayout picks the canonical dense-eligible generalization for
// the microbenchmarks: starting at the base levels, it repeatedly raises
// the attribute with the largest current domain until the layout passes
// relation.DenseEligible for a scan of `rows` tuples (mirroring how the
// search's generalized nodes shrink domains, and exactly the bound the
// adaptive kernel applies). err if even the fully generalized QI is too
// large.
func generalizedLayout(cols []int, hs []*hierarchy.Hierarchy, rows int) (kernelLayout, error) {
	levels := make([]int, len(cols))
	for {
		l := layoutAt(cols, hs, levels)
		if relation.DenseEligible(l.card, rows) {
			return l, nil
		}
		// Raise the attribute with the largest current domain.
		best, bestSize := -1, 1
		for i, h := range hs {
			if levels[i] < h.Height() && h.LevelSize(levels[i]) > bestSize {
				best, bestSize = i, h.LevelSize(levels[i])
			}
		}
		if best < 0 {
			return kernelLayout{}, fmt.Errorf("bench: quasi-identifier is never dense-eligible for %d rows, even fully generalized", rows)
		}
		levels[best]++
	}
}

// layoutAt assembles the layout of the quasi-identifier at fixed levels.
func layoutAt(cols []int, hs []*hierarchy.Hierarchy, levels []int) kernelLayout {
	l := kernelLayout{cols: cols, levels: append([]int(nil), levels...), cells: 1}
	l.recode = make([][]int32, len(cols))
	l.card = make([]int, len(cols))
	for i, h := range hs {
		l.recode[i] = h.MapTo(levels[i])
		l.card[i] = h.LevelSize(levels[i])
		l.cells *= int64(l.card[i])
	}
	return l
}

// composeSteps builds the γ⁺ table of one hierarchy from level `from` to
// level `to` (nil when from == to), the dimension map a rollup recodes
// through.
func composeSteps(h *hierarchy.Hierarchy, from, to int) []int32 {
	if from == to {
		return nil
	}
	table := append([]int32(nil), h.Step(from)...)
	for l := from + 1; l < to; l++ {
		step := h.Step(l)
		for i, c := range table {
			table[i] = step[c]
		}
	}
	return table
}

// sameFreq reports whether two frequency sets are observably identical:
// same groups, same counts, same EachSorted order.
func sameFreq(a, b *relation.FreqSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	type row struct {
		codes string
		count int64
	}
	collect := func(f *relation.FreqSet) []row {
		out := make([]row, 0, f.Len())
		buf := make([]byte, 0, 64)
		f.EachSorted(func(codes []int32, count int64) {
			buf = buf[:0]
			for _, c := range codes {
				buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			out = append(out, row{string(buf), count})
		})
		return out
	}
	ra, rb := collect(a), collect(b)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// timeOp measures fn over iters runs and returns milliseconds per run.
func timeOp(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Microseconds()) / 1000 / float64(iters)
}

// allocsPerRun is testing.AllocsPerRun without importing the testing
// package into a non-test binary: the number of heap allocations per
// invocation of fn, measured the same way. The loop runs at GOMAXPROCS 1
// and the mean is an integer, so a stray allocation by another goroutine
// during 512 runs reads as 0, while fn allocating once per call reads as
// 1.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up (first-call lazy work must not count)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// KernelMicros runs the scan and rollup microbenchmarks on the dataset's
// quasi-identifier at its canonical dense-eligible generalized layout:
// the same GroupCountWithCard and RecodeWithCard executed by both kernels,
// with identical outputs required and the dense per-tuple hot path pinned
// at 0 allocs/op.
func KernelMicros(d *dataset.Dataset, qiSize int, progress Progress) ([]KernelMicro, error) {
	cols, hs, err := d.QISubset(qiSize)
	if err != nil {
		return nil, err
	}
	rows := d.Table.NumRows()
	layout, err := generalizedLayout(cols, hs, rows)
	if err != nil {
		return nil, err
	}
	iters := 1 + 2_000_000/(rows+1)

	// Scan: the fused dense counting loop vs the sparse map scan.
	sparseScan := relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, nil)
	denseScan := relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, layout.card)
	scan := KernelMicro{
		Op:            "scan",
		Dataset:       d.Name,
		Rows:          rows,
		QISize:        qiSize,
		Levels:        layout.levels,
		Cells:         layout.cells,
		DenseEligible: denseScan.Dense(),
		Groups:        denseScan.Len(),
		Identical:     sameFreq(denseScan, sparseScan),
		SparseMS: timeOp(iters, func() {
			relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, nil)
		}),
		DenseMS: timeOp(iters, func() {
			relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, layout.card)
		}),
	}
	if scan.DenseMS > 0 {
		scan.Speedup = scan.SparseMS / scan.DenseMS
	}
	// Pin the per-tuple hot path: Add into an existing dense set must not
	// allocate. Paired +1/-1 adds keep the set unchanged across runs.
	var probe []int32
	denseScan.EachSorted(func(codes []int32, count int64) {
		if probe == nil {
			probe = append([]int32(nil), codes...)
		}
	})
	if probe != nil {
		scan.DenseAddAllocsPerOp = allocsPerRun(512, func() {
			denseScan.Add(probe, 1)
			denseScan.Add(probe, -1)
		})
	}
	progress.Log("%s | QID=%d | scan at %v | sparse %.3fms, dense %.3fms (%.2fx, identical=%v, allocs/op=%.0f)",
		d.Name, qiSize, scan.Levels, scan.SparseMS, scan.DenseMS, scan.Speedup, scan.Identical, scan.DenseAddAllocsPerOp)

	// Rollup: dense→dense index-remap pass vs sparse re-grouping, rolling
	// one level further up every attribute that can go. The source is a
	// deeper-generalized layout than the scan's: a rollup's input in the
	// search is itself a generalized frequency set, so the canonical rollup
	// regime has cell count on the order of the row count (occupancy ≈ 1),
	// not the scan threshold's maximum.
	src, err := generalizedLayout(cols, hs, rows/relation.DenseCellsPerUnit)
	if err != nil {
		return nil, err
	}
	target := append([]int(nil), src.levels...)
	for i, h := range hs {
		if target[i] < h.Height() {
			target[i]++
		}
	}
	maps := make([][]int32, len(cols))
	targetCard := make([]int, len(cols))
	targetCells := int64(1)
	for i, h := range hs {
		maps[i] = composeSteps(h, src.levels[i], target[i])
		targetCard[i] = h.LevelSize(target[i])
		targetCells *= int64(targetCard[i])
	}
	sparseSrc := relation.GroupCountWithCard(d.Table, src.cols, src.recode, nil)
	denseSrc := relation.GroupCountWithCard(d.Table, src.cols, src.recode, src.card)
	sparseRoll := sparseSrc.RecodeWithCard(maps, nil)
	denseRoll := denseSrc.RecodeWithCard(maps, targetCard)
	rollIters := 1 + 50_000_000/(int(src.cells)+1)
	roll := KernelMicro{
		Op:            "rollup",
		Dataset:       d.Name,
		Rows:          rows,
		QISize:        qiSize,
		Levels:        src.levels,
		TargetLevels:  target,
		Cells:         targetCells,
		DenseEligible: denseRoll.Dense(),
		Groups:        denseRoll.Len(),
		Identical:     sameFreq(denseRoll, sparseRoll),
		SparseMS: timeOp(rollIters, func() {
			sparseSrc.RecodeWithCard(maps, nil)
		}),
		DenseMS: timeOp(rollIters, func() {
			denseSrc.RecodeWithCard(maps, targetCard)
		}),
	}
	if roll.DenseMS > 0 {
		roll.Speedup = roll.SparseMS / roll.DenseMS
	}
	progress.Log("%s | QID=%d | rollup %v -> %v | sparse %.3fms, dense %.3fms (%.2fx, identical=%v)",
		d.Name, qiSize, roll.Levels, roll.TargetLevels, roll.SparseMS, roll.DenseMS, roll.Speedup, roll.Identical)

	return []KernelMicro{scan, roll}, nil
}

// WriteJSON renders the report as indented JSON.
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned text table.
func (r *KernelReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Sparse vs dense frequency-set kernel (GOMAXPROCS=%d, dense threshold %d cells)\n",
		r.GOMAXPROCS, r.DenseMaxCells); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s QID=%d k=%d %-24s sparse %.1fms dense %.1fms speedup %.2fx identical=%v\n",
			c.Dataset, c.QISize, c.K, c.Algo, c.SparseMS, c.DenseMS, c.Speedup, c.Identical); err != nil {
			return err
		}
	}
	for _, m := range r.Micro {
		if _, err := fmt.Fprintf(w, "%s QID=%d %-7s at %v cells=%d sparse %.3fms dense %.3fms speedup %.2fx identical=%v allocs/op=%.0f\n",
			m.Dataset, m.QISize, m.Op, m.Levels, m.Cells, m.SparseMS, m.DenseMS, m.Speedup, m.Identical, m.DenseAddAllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}

// NewKernelReport assembles a report header for the current process.
func NewKernelReport() *KernelReport {
	return &KernelReport{GOMAXPROCS: runtime.GOMAXPROCS(0), DenseMaxCells: relation.DenseMaxCells}
}
