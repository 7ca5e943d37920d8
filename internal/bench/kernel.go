package bench

// This file is the kernel experiment: the dense mixed-radix frequency-set
// kernel measured against the sparse map reference in isolation, by scan
// and rollup microbenchmarks on dense-eligible generalized layouts. Whole
// runs need no cells here: the tests hold both kernels' Solutions and
// Stats identical for every variant. Counters, group counts, and the dense
// allocs/op pin are deterministic and gated in CI; timings and speedups
// are informational.

import (
	"fmt"
	"runtime"
	"time"

	"incognito/internal/hierarchy"
	"incognito/internal/relation"
)

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

// freqRows lists a frequency set's groups and counts in EachSorted order:
// two sets are observably identical when their rows are equal.
func freqRows(f *relation.FreqSet) []freqRow {
	out := make([]freqRow, 0, f.Len())
	buf := make([]byte, 0, 64)
	f.EachSorted(func(codes []int32, count int64) {
		buf = buf[:0]
		for _, c := range codes {
			buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		out = append(out, freqRow{string(buf), count})
	})
	return out
}

type freqRow struct {
	codes string
	count int64
}

// timeOp measures fn over iters runs and returns the time per run.
func timeOp(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// allocsPerRun is testing.AllocsPerRun without importing the testing
// package into a non-test binary: the number of heap allocations per
// invocation of fn, measured the same way. The loop runs at GOMAXPROCS 1
// and the mean is an integer, so a stray allocation by another goroutine
// during 512 runs reads as 0, while fn allocating once per call reads as
// 1.
func allocsPerRun(runs int, fn func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up (first-call lazy work must not count)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// kernel runs the scan and rollup microbenchmarks on the workload's
// quasi-identifier at its canonical dense-eligible generalized layout: the
// same GroupCountWithCard and RecodeWithCard executed by both kernels, with
// identical outputs required and the dense per-tuple hot path pinned at 0
// allocs/op.
func (c *comparison) kernel(w Workload) error {
	d := w.Data
	cols, hs, err := d.QISubset(w.QISize)
	if err != nil {
		return err
	}
	rows := d.Table.NumRows()
	layout, err := generalizedLayout(cols, hs, rows)
	if err != nil {
		return err
	}
	iters := 1 + 2_000_000/(rows+1)

	// Scan: the fused dense counting loop vs the sparse map scan.
	scan := func(card []int) (side, *relation.FreqSet) {
		f := relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, card)
		return side{result: freqRows(f), elapsed: timeOp(iters, func() {
			relation.GroupCountWithCard(d.Table, layout.cols, layout.recode, card)
		})}, f
	}
	cell := Cell{Dataset: d.Name, Rows: rows, QISize: w.QISize, Op: "scan", Levels: layout.levels,
		Counters: map[string]int64{"cells": layout.cells}}
	err = c.measure(cell, func() (side, error) {
		s, _ := scan(nil)
		return s, nil
	}, func() (side, error) {
		s, dense := scan(layout.card)
		s.counters = denseCounters(dense)
		// Pin the per-tuple hot path: Add into an existing dense set must
		// not allocate. Paired +1/-1 adds keep the set unchanged across runs.
		var probe []int32
		dense.EachSorted(func(codes []int32, count int64) {
			if probe == nil {
				probe = append([]int32(nil), codes...)
			}
		})
		if probe != nil {
			s.counters["dense_add_allocs_per_op"] = allocsPerRun(512, func() {
				dense.Add(probe, 1)
				dense.Add(probe, -1)
			})
		}
		return s, nil
	})
	if err != nil {
		return err
	}

	// Rollup: dense→dense index-remap pass vs sparse re-grouping, rolling
	// one level further up every attribute that can go. The source is a
	// deeper-generalized layout than the scan's: a rollup's input in the
	// search is itself a generalized frequency set, so the canonical rollup
	// regime has cell count on the order of the row count (occupancy ≈ 1),
	// not the scan threshold's maximum.
	src, err := generalizedLayout(cols, hs, rows/relation.DenseCellsPerUnit)
	if err != nil {
		return err
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
	rollIters := 1 + 50_000_000/(int(src.cells)+1)
	rollup := func(srcCard, card []int) (side, *relation.FreqSet) {
		from := relation.GroupCountWithCard(d.Table, src.cols, src.recode, srcCard)
		f := from.RecodeWithCard(maps, card)
		return side{result: freqRows(f), elapsed: timeOp(rollIters, func() {
			from.RecodeWithCard(maps, card)
		})}, f
	}
	cell = Cell{Dataset: d.Name, Rows: rows, QISize: w.QISize, Op: "rollup", Levels: src.levels, TargetLevels: target,
		Counters: map[string]int64{"cells": targetCells}}
	return c.measure(cell, func() (side, error) {
		s, _ := rollup(nil, nil)
		return s, nil
	}, func() (side, error) {
		s, dense := rollup(src.card, targetCard)
		s.counters = denseCounters(dense)
		return s, nil
	})
}

// denseCounters are a dense-kernel result's pinned counters: whether the
// adaptive kernel chose the dense layout (1) or not (0), and its groups.
func denseCounters(f *relation.FreqSet) map[string]int64 {
	eligible := int64(0)
	if f.Dense() {
		eligible = 1
	}
	return map[string]int64{"dense_eligible": eligible, "groups": int64(f.Len())}
}
