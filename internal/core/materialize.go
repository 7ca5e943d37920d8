package core

import (
	"fmt"
	"sort"

	"incognito/internal/faultinject"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// This file implements the paper's §7 future-work proposal: "the
// performance of Incognito can be enhanced even more by strategically
// materializing portions of the data cube", citing Harinarayan, Rajaraman
// and Ullman's greedy view selection. A MaterializedSet is a partial cube:
// zero-generalization frequency sets for a chosen family of QI subsets,
// selected greedily under a total size budget (measured in groups, i.e.
// frequency-set rows). Budget 0 degenerates to Basic Incognito (every root
// scanned); an unbounded budget degenerates to Cube Incognito (§3.3.2).

// matView is one materialized view: a QI subset (by position) and its
// zero-generalization frequency set.
type matView struct {
	dims []int
	f    *relation.FreqSet
}

// MaterializedSet holds the selected views and serves root frequency sets
// either from a materialized margin or by telling the caller to scan.
type MaterializedSet struct {
	in    *Input
	views []*matView
	byKey map[string]*matView
	// BuildStats records the selection and materialization cost.
	BuildStats Stats
}

// MaterializeBudget selects and materializes views greedily under the
// budget: repeatedly pick the view with the best benefit per unit size,
// where a view's benefit is the scan work it saves for the subsets it can
// answer by margining (Harinarayan-style, with |T| as the cost of an
// unanswered subset). Sizes are estimated from a sample scan; the chosen
// views are then materialized exactly, so correctness never depends on the
// estimates.
func MaterializeBudget(in *Input, budget int64) *MaterializedSet {
	in.installAbort()
	m := &MaterializedSet{in: in, byKey: make(map[string]*matView)}
	n := len(in.QI)
	if budget <= 0 || n == 0 {
		return m
	}
	sp := in.StartSpan("materialize")
	sp.SetAttr("budget", budget)
	in.Progress.SetPhase("materialize")
	defer sp.End()
	full := (1 << n) - 1
	rows := int64(in.Table.NumRows())

	estSpan := sp.Start("estimate_sizes")
	est := m.estimateSizes()
	estSpan.End()
	selSpan := sp.Start("select_views")

	// Greedy selection. costOf[s] = cost of the cheapest way to answer s: a
	// selected superset's size, or a scan. A scan is priced above reading
	// an equal-sized aggregate because it re-encodes every base tuple
	// through the dimension tables; the markup also makes an unbounded
	// budget degenerate to the full cube (§3.3.2), as it should.
	scanCost := rows + rows/4 + 1
	costOf := make([]int64, full+1)
	for s := 1; s <= full; s++ {
		costOf[s] = scanCost
	}
	remaining := budget
	selected := make(map[int]int64) // mask → estimated size
	for {
		bestMask, bestSize := 0, int64(0)
		var bestScore float64
		for s := 1; s <= full; s++ {
			if _, done := selected[s]; done || est[s] > remaining {
				continue
			}
			var benefit int64
			for t := 1; t <= full; t++ {
				if t&s == t && costOf[t] > est[s] { // t ⊆ s and s improves it
					benefit += costOf[t] - est[s]
				}
			}
			if benefit <= 0 {
				continue
			}
			score := float64(benefit) / float64(est[s]+1)
			if bestMask == 0 || score > bestScore {
				bestMask, bestSize, bestScore = s, est[s], score
			}
		}
		if bestMask == 0 {
			break
		}
		selected[bestMask] = bestSize
		remaining -= bestSize
		for t := 1; t <= full; t++ {
			if t&bestMask == t && costOf[t] > bestSize {
				costOf[t] = bestSize
			}
		}
	}

	selSpan.SetAttr("views", len(selected))
	selSpan.End()

	// Materialize the chosen views exactly, largest subset first so smaller
	// chosen views can margin from larger ones instead of rescanning.
	masks := make([]int, 0, len(selected))
	for mask := range selected {
		masks = append(masks, mask)
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := popcount(masks[i]), popcount(masks[j])
		if pi != pj {
			return pi > pj
		}
		return masks[i] < masks[j]
	})
	// Views of equal subset size can never be strict supersets of each
	// other, so every view's margin source lives in an earlier (larger)
	// size wave. Each wave is therefore materialized in parallel without
	// changing which source any view margins from — the scan/rollup mix in
	// BuildStats is identical at every worker count. (The wave boundary
	// stays: unlike the cube, which source a view margins from depends on
	// estimated sizes of whatever is already materialized, so the
	// dependency structure is dynamic, not a static DAG. Within a wave the
	// work-stealing scheduler still rebalances the uneven view costs.)
	workers := in.floorWorkers(in.Workers())
	for lo := 0; lo < len(masks); {
		if in.Err() != nil {
			// Cancelled: whatever was materialized so far is still a valid
			// (smaller) partial cube, so just stop selecting more.
			return m
		}
		if !in.Budget.AllowMaterialize() {
			// Over the soft memory budget: shed the remaining waves. The
			// partial set is still exact; unanswered subsets fall back to
			// scans, exactly like a smaller budget would have.
			sp.SetAttr("shed_views", len(masks)-lo)
			return m
		}
		hi := lo
		for hi < len(masks) && popcount(masks[hi]) == popcount(masks[lo]) {
			hi++
		}
		wave := masks[lo:hi]
		waveSpan := sp.Start("wave")
		waveSpan.SetAttr("subset_size", popcount(masks[lo]))
		waveSpan.SetAttr("views", len(wave))
		built := make([]*matView, len(wave))
		scanned := make([]bool, len(wave))
		werr := runIndexedSafe(in, workers, len(wave), func(i int) string { return fmt.Sprintf("materialize_wave[%d]", i) }, func(i int) {
			if in.Err() != nil {
				return
			}
			faultinject.Point("core.materialize_wave")
			dims := dimsOfMask(wave[i], n)
			if super := m.lookupSuperset(dims); super != nil {
				built[i] = &matView{dims: dims, f: marginTo(super, dims)}
			} else {
				built[i] = &matView{dims: dims, f: in.ScanFreq(dims, make([]int, len(dims)))}
				scanned[i] = true
			}
		})
		if werr != nil {
			// A wave worker panicked: commit nothing from this wave and
			// re-panic typed; the API-boundary guards convert it.
			waveSpan.End()
			panic(werr)
		}
		if in.Err() != nil {
			// Cancelled mid-wave: drop the incomplete wave so the set never
			// holds nil views.
			waveSpan.End()
			return m
		}
		for i, v := range built {
			m.views = append(m.views, v)
			m.byKey[dimsKey(v.dims)] = v
			in.grantFreq(v.f)
			if scanned[i] {
				m.BuildStats.TableScans++
				waveSpan.Add(CounterTableScans, 1)
			} else {
				m.BuildStats.Rollups++
				waveSpan.Add(CounterRollups, 1)
			}
			m.BuildStats.CubeFreqSets++
			waveSpan.Add(CounterCubeFreqSets, 1)
		}
		waveSpan.End()
		lo = hi
	}
	return m
}

// estimateSizes scans a bounded sample once and counts distinct groups per
// subset. For the QI sizes this module targets (≤ ~10) the 2^n counters per
// row are affordable; the sample keeps the row factor bounded.
func (m *MaterializedSet) estimateSizes() []int64 {
	in := m.in
	n := len(in.QI)
	full := (1 << n) - 1
	rows := in.Table.NumRows()
	const maxSample = 4096
	stride := 1
	if rows > maxSample {
		stride = rows / maxSample
	}
	seen := make([]map[string]bool, full+1)
	for s := 1; s <= full; s++ {
		seen[s] = make(map[string]bool)
	}
	codes := make([]int32, n)
	buf := make([]byte, 4*n)
	sampled := 0
	for r := 0; r < rows; r += stride {
		sampled++
		for i, q := range in.QI {
			codes[i] = in.Table.Code(r, q.Col)
		}
		for s := 1; s <= full; s++ {
			j := 0
			for i := 0; i < n; i++ {
				if s&(1<<i) != 0 {
					put32(buf, j, codes[i])
					j++
				}
			}
			seen[s][string(buf[:4*j])] = true
		}
	}
	est := make([]int64, full+1)
	for s := 1; s <= full; s++ {
		e := int64(len(seen[s]))
		if sampled > 0 && stride > 1 {
			// Linear scale-up, clamped to the table size: biased high for
			// low-cardinality subsets, which only makes the greedy more
			// conservative about the budget.
			e = e * int64(rows) / int64(sampled)
		}
		if e < int64(len(seen[s])) {
			e = int64(len(seen[s]))
		}
		if e > int64(rows) {
			e = int64(rows)
		}
		est[s] = e
	}
	return est
}

func put32(buf []byte, j int, c int32) {
	buf[4*j] = byte(c)
	buf[4*j+1] = byte(c >> 8)
	buf[4*j+2] = byte(c >> 16)
	buf[4*j+3] = byte(c >> 24)
}

// Root serves the zero-generalization frequency set for a QI subset: the
// exact view if materialized, an exact margin of a materialized superset,
// or nil (meaning: scan).
func (m *MaterializedSet) Root(dims []int) *relation.FreqSet {
	if v, ok := m.byKey[dimsKey(dims)]; ok {
		return v.f
	}
	if super := m.lookupSuperset(dims); super != nil {
		return marginTo(super, dims)
	}
	return nil
}

// covers reports whether Root serves dims from a view, without computing
// the margin.
func (m *MaterializedSet) covers(dims []int) bool {
	_, ok := m.byKey[dimsKey(dims)]
	return ok || m.lookupSuperset(dims) != nil
}

// lookupSuperset returns the materialized view over the smallest strict
// superset of dims (smallest by frequency-set size), or nil.
func (m *MaterializedSet) lookupSuperset(dims []int) *matView {
	var best *matView
	for _, v := range m.views {
		if len(v.dims) <= len(dims) {
			continue
		}
		if isSubset(dims, v.dims) && (best == nil || v.f.Len() < best.f.Len()) {
			best = v
		}
	}
	return best
}

// marginTo margins a view's zero-generalization frequency set down to the
// QI subset dims ⊆ view.dims by summing out the other positions.
func marginTo(v *matView, dims []int) *relation.FreqSet {
	outDims := append([]int(nil), v.dims...)
	f := v.f
	for i := len(outDims) - 1; i >= 0; i-- {
		keep := false
		for _, d := range dims {
			if outDims[i] == d {
				keep = true
			}
		}
		if !keep {
			f = f.DropColumn(i)
			outDims = append(outDims[:i], outDims[i+1:]...)
		}
	}
	return f
}

func dimsOfMask(mask, n int) []int {
	var dims []int
	for d := 0; d < n; d++ {
		if mask&(1<<d) != 0 {
			dims = append(dims, d)
		}
	}
	return dims
}

func isSubset(sub, super []int) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
		j++
	}
	return true
}

// NumViews reports how many views were materialized.
func (m *MaterializedSet) NumViews() int { return len(m.views) }

// ViewDims lists the materialized subsets (QI positions), largest first.
func (m *MaterializedSet) ViewDims() [][]int {
	out := make([][]int, len(m.views))
	for i, v := range m.views {
		out[i] = append([]int(nil), v.dims...)
	}
	return out
}

// RunMaterialized executes Incognito against a strategically materialized
// partial cube: roots whose subset is covered by a materialized view are
// served by an exact margin plus rollup; everything else scans, exactly
// like Basic. The solution set is identical to every other variant — only
// the scan/rollup mix changes, which is the point of the optimization.
func RunMaterialized(in Input, mat *MaterializedSet) (res *Result, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	in.installAbort()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, resilience.AsPanicError("run", r)
		}
	}()
	// The maker serves roots from the (read-only) materialized set; each
	// search component writes its counters to its own Stats, so the family
	// searches can run in parallel.
	maker := func(_ []*lattice.Node, stats *Stats) rootSource {
		return rootSource{
			count: func(nd *lattice.Node) {
				if mat.covers(nd.Dims) {
					stats.Rollups++
				} else {
					stats.TableScans++
				}
			},
			build: func(nd *lattice.Node) *relation.FreqSet {
				if zero := mat.Root(nd.Dims); zero != nil {
					return in.RollupTo(zero, nd.Dims, make([]int, len(nd.Dims)), nd.Levels)
				}
				return in.ScanFreq(nd.Dims, nd.Levels)
			},
		}
	}
	return runSearch(&in, maker, "Materialized Incognito")
}
