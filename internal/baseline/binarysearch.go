package baseline

import (
	"fmt"

	"incognito/internal/core"
	"incognito/internal/faultinject"
	"incognito/internal/lattice"
	"incognito/internal/resilience"
)

// SamaratiResult is the outcome of the binary search: a single minimal
// k-anonymous full-domain generalization (minimal in the height sense of
// §2.1), the height at which it was found, and run counters. Height is -1
// and Solution nil when no generalization qualifies (k too large even for
// the fully generalized table under the suppression threshold).
type SamaratiResult struct {
	Height   int
	Solution []int
	Stats    core.Stats
}

// BinarySearch implements Samarati's algorithm [14] as described in §2.2:
// since a k-anonymous generalization at height h implies one at every
// height above h, binary search on height finds the least height carrying a
// k-anonymous node; each probe checks the nodes of one height stratum by a
// group-by scan over the star schema. Unlike Incognito it returns a single
// solution, minimal only under the specific height-based definition.
func BinarySearch(in core.Input) (res *SamaratiResult, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, resilience.AsPanicError("binary_search", r)
		}
	}()
	in.PackScans()
	sp := in.StartSpan("binary_search")
	in.Progress.SetPhase("binary search")
	defer sp.End()
	full := lattice.NewFull(in.Heights())
	dims := make([]int, full.NumAttrs())
	for i := range dims {
		dims[i] = i
	}
	res = &SamaratiResult{Height: -1}
	res.Stats.Candidates = full.Size()
	sp.Add(core.CounterCandidates, int64(full.Size()))
	in.Progress.AddCandidates(int64(full.Size()))

	// existsAt scans the stratum at height h, returning the first
	// k-anonymous node found (nil if none). Each probe is one trace span
	// and one cancellation checkpoint.
	existsAt := func(h int) []int {
		faultinject.Point("baseline.probe")
		probe := sp.Start("probe")
		probe.SetAttr("height", h)
		before := res.Stats
		defer func() {
			core.RecordStatsDelta(probe, before, res.Stats)
			probe.End()
		}()
		for _, id := range full.AtHeight(h) {
			if in.Err() != nil {
				return nil
			}
			levels := full.Levels(id)
			in.Progress.AddVisited(1)
			res.Stats.NodesChecked++
			res.Stats.TableScans++
			if in.CheckFreq(in.ScanFreq(dims, levels)) {
				return levels
			}
		}
		return nil
	}
	// cancelledErr wraps the context error once a probe bailed out.
	cancelledErr := func() error {
		if err := in.Err(); err != nil {
			return fmt.Errorf("baseline: binary search cancelled: %w", err)
		}
		return nil
	}

	// The top of the lattice is the only candidate at MaxHeight; if even it
	// fails there is no solution at any height.
	best := existsAt(full.MaxHeight())
	if err := cancelledErr(); err != nil {
		return nil, err
	}
	if best == nil {
		return res, nil
	}
	bestHeight := full.MaxHeight()

	lo, hi := 0, full.MaxHeight()
	for lo < hi {
		mid := (lo + hi) / 2
		if sol := existsAt(mid); sol != nil {
			best, bestHeight = sol, mid
			hi = mid
		} else {
			lo = mid + 1
		}
		if err := cancelledErr(); err != nil {
			return nil, err
		}
	}
	res.Height = bestHeight
	res.Solution = best
	return res, nil
}
