// Package baseline implements the previous full-domain generalization
// algorithms Incognito is evaluated against in §4: exhaustive bottom-up
// breadth-first search over the complete generalization lattice, with and
// without the rollup optimization (§2.2), and Samarati's binary search on
// lattice height [14].
package baseline

import (
	"fmt"

	"incognito/internal/core"
	"incognito/internal/faultinject"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// BottomUp performs the naive bottom-up breadth-first search of §2.2 over
// the full multi-attribute generalization lattice, run exhaustively so it
// produces the set of all k-anonymous full-domain generalizations (it is
// sound and complete, like Incognito, but does no a priori subset pruning).
// Nodes are visited in height order; a node that is a generalization of a
// node already found k-anonymous is marked and not checked (generalization
// property). With useRollup, a non-root node's frequency set is derived
// from a checked parent's frequency set instead of re-scanning the table.
func BottomUp(in core.Input, useRollup bool) (res *core.Result, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, resilience.AsPanicError("bottomup", r)
		}
	}()
	in.PackScans()
	sp := in.StartSpan("bottomup")
	sp.SetAttr("rollup", useRollup)
	in.Progress.SetPhase("bottom-up")
	defer sp.End()
	full := lattice.NewFull(in.Heights())
	n := full.NumAttrs()
	dims := make([]int, n)
	for i := range dims {
		dims[i] = i
	}

	res = &core.Result{}
	res.Stats.Candidates = full.Size()
	sp.Add(core.CounterCandidates, int64(full.Size()))
	in.Progress.AddCandidates(int64(full.Size()))

	anonymous := make(map[int]bool) // marked or checked-and-passed
	// Frequency sets of checked-failed nodes in the previous stratum, for
	// rollup; dropped stratum by stratum to bound memory.
	var prevFailed map[int]*relation.FreqSet
	levels := make([]int, n)
	parentLevels := make([]int, n)

	for h := 0; h <= full.MaxHeight(); h++ {
		if err := in.Err(); err != nil {
			return nil, fmt.Errorf("baseline: bottom-up cancelled at height %d: %w", h, err)
		}
		faultinject.Point("baseline.stratum")
		stratum := sp.Start("stratum")
		stratum.SetAttr("height", h)
		before := res.Stats
		failed := make(map[int]*relation.FreqSet)
		for _, id := range full.AtHeight(h) {
			if err := in.Err(); err != nil {
				return nil, fmt.Errorf("baseline: bottom-up cancelled at height %d: %w", h, err)
			}
			in.Progress.AddVisited(1)
			if anonymous[id] {
				// Propagate the marking: generalizations of an anonymous
				// node are anonymous.
				res.Stats.NodesMarked++
				full.LevelsInto(id, levels)
				res.Solutions = append(res.Solutions, append([]int(nil), levels...))
				for _, up := range full.Up(id) {
					anonymous[up] = true
				}
				continue
			}
			full.LevelsInto(id, levels)
			var f *relation.FreqSet
			if useRollup {
				// Any parent whose frequency set we kept was checked and
				// failed; roll its set up one level.
				for _, down := range full.Down(id) {
					if pf, ok := prevFailed[down]; ok {
						full.LevelsInto(down, parentLevels)
						f = in.RollupTo(pf, dims, parentLevels, levels)
						res.Stats.Rollups++
						break
					}
				}
			}
			if f == nil {
				res.Stats.TableScans++
				f = in.ScanFreq(dims, levels)
			}
			res.Stats.NodesChecked++
			if in.CheckFreq(f) {
				anonymous[id] = true
				res.Solutions = append(res.Solutions, append([]int(nil), levels...))
				for _, up := range full.Up(id) {
					anonymous[up] = true
				}
			} else if useRollup {
				failed[id] = f
			}
		}
		prevFailed = failed
		core.RecordStatsDelta(stratum, before, res.Stats)
		stratum.End()
	}
	core.SortSolutions(res.Solutions)
	return res, nil
}
