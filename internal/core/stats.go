package core

import "incognito/internal/trace"

// Stats instruments a run with the counters the paper reports: how many
// generalization nodes had their k-anonymity checked explicitly (the
// §4.2.1 "nodes searched" table), how often the base table was scanned
// versus how often a frequency set was derived by rollup, and how much
// candidate generation the a priori pruning left behind.
type Stats struct {
	// NodesChecked counts nodes whose frequency set was computed and whose
	// k-anonymity was tested explicitly (roots and failure frontiers).
	NodesChecked int
	// NodesMarked counts nodes skipped because the generalization property
	// had already marked them k-anonymous.
	NodesMarked int
	// Candidates counts candidate nodes across all iterations (|C1|+…+|Cn|).
	Candidates int
	// TableScans counts full scans of the base table (frequency sets built
	// from T itself).
	TableScans int
	// Rollups counts frequency sets derived from another frequency set.
	Rollups int
	// CubeFreqSets counts zero-generalization frequency sets materialized by
	// Cube Incognito's pre-computation phase.
	CubeFreqSets int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.NodesChecked += other.NodesChecked
	s.NodesMarked += other.NodesMarked
	s.Candidates += other.Candidates
	s.TableScans += other.TableScans
	s.Rollups += other.Rollups
	s.CubeFreqSets += other.CubeFreqSets
}

// Sub returns s - other, the per-phase delta recorded on trace spans.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		NodesChecked: s.NodesChecked - other.NodesChecked,
		NodesMarked:  s.NodesMarked - other.NodesMarked,
		Candidates:   s.Candidates - other.Candidates,
		TableScans:   s.TableScans - other.TableScans,
		Rollups:      s.Rollups - other.Rollups,
		CubeFreqSets: s.CubeFreqSets - other.CubeFreqSets,
	}
}

// Trace counter names. Each unit of work is recorded on exactly one span,
// so summing a counter over a whole trace document reproduces the matching
// Stats total (the invariant the determinism tests assert).
const (
	CounterNodesChecked = "nodes_checked"
	CounterNodesMarked  = "nodes_marked"
	CounterCandidates   = "candidates"
	CounterTableScans   = "table_scans"
	CounterRollups      = "rollups"
	CounterCubeFreqSets = "cube_freq_sets"
	// CounterDeltaScreenNS is the wall time a delta run's search spent
	// deciding nodes from their saved records (nanoseconds, summed over
	// workers); it is recorded on the search span and has no Stats twin.
	CounterDeltaScreenNS = "delta_screen_ns"
)

// RecordStatsDelta records after − before on sp, for algorithm drivers in
// other packages (the baselines) that instrument phases by snapshotting
// their Stats around each phase. No-op on a nil span.
func RecordStatsDelta(sp *trace.Span, before, after Stats) {
	after.Sub(before).recordOn(sp)
}

// recordOn adds the Stats counters to a span (no-op on a nil span, and
// zero-valued counters are skipped).
func (s Stats) recordOn(sp *trace.Span) {
	sp.Add(CounterNodesChecked, int64(s.NodesChecked))
	sp.Add(CounterNodesMarked, int64(s.NodesMarked))
	sp.Add(CounterCandidates, int64(s.Candidates))
	sp.Add(CounterTableScans, int64(s.TableScans))
	sp.Add(CounterRollups, int64(s.Rollups))
	sp.Add(CounterCubeFreqSets, int64(s.CubeFreqSets))
}
