// Package core implements the paper's primary contribution: the Incognito
// algorithm (Fig. 8) and its Super-roots and Cube variants (§3.3), which
// compute the set of ALL k-anonymous full-domain generalizations of a table
// with respect to a quasi-identifier, optionally with a tuple-suppression
// threshold (§2.1).
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"incognito/internal/faultinject"
	"incognito/internal/hierarchy"
	"incognito/internal/relation"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// QIAttr binds one quasi-identifier attribute: a column of the table and the
// generalization hierarchy over that column's base domain.
type QIAttr struct {
	Col int
	H   *hierarchy.Hierarchy
}

// Input is a k-anonymization problem instance: the table, the ordered
// quasi-identifier, the anonymity parameter k, and the maximum number of
// outlier tuples that may be suppressed (0 disables suppression).
type Input struct {
	Table       *relation.Table
	QI          []QIAttr
	K           int64
	MaxSuppress int64
	// Parallelism bounds intra-run concurrency: 0 uses every core
	// (GOMAXPROCS), 1 runs strictly sequentially (the reference path), and
	// n > 1 uses at most n workers. Solutions and Stats are identical at
	// every setting; see parallel.go.
	Parallelism int
	// Ctx, when non-nil, makes the run cancellable: it is checked at phase
	// boundaries (search iterations, BFS queue pops, cube waves, lattice
	// strata, binary-search probes) and inside the worker loops of the
	// parallel paths. Once it is done the algorithms return promptly with
	// an error wrapping the context's error. nil means context.Background.
	Ctx context.Context
	// Trace, when non-nil, records a span per pipeline phase with wall
	// times and work counters (see internal/trace). A nil tracer is fully
	// disabled and allocation-free; Solutions and Stats are bit-identical
	// with tracing on or off.
	Trace *trace.Tracer
	// Span optionally nests the run's spans under an existing parent span
	// of the same tracer (the bench harness groups each experiment cell
	// this way). When nil, runs start top-level spans on Trace.
	Span *trace.Span
	// Progress, when non-nil, receives live atomic work counters (nodes
	// visited, candidate totals, tuples scanned, rollups) from the hot
	// paths, for progress reporting and the /metrics endpoint. A nil
	// handle is fully disabled and allocation-free; Solutions and Stats
	// are bit-identical with progress on or off.
	Progress *telemetry.Progress
	// Metrics, when non-nil, receives distribution observations
	// (frequency-set sizes, rollup fan-in) as they happen. Same disabled
	// contract as Progress.
	Metrics *telemetry.RunMetrics
	// SparseKernel forces every frequency set onto the sparse map-backed
	// representation, disabling the dense mixed-radix kernel that is
	// otherwise chosen adaptively from the hierarchies' level sizes.
	// Solutions and Stats are bit-identical either way. It is the reference
	// the kernel-equivalence tests and the kernel and incremental
	// experiments compare the adaptive kernel against; no public option
	// sets it.
	SparseKernel bool
	// Check, when non-nil, saves the verdict of every node checked so far
	// at every checkpoint boundary — after each subset-size iteration, after
	// each family completes on the parallel path, after each breadth-first
	// level on the sequential path — so a killed run can be resumed.
	// Snapshots hold verdicts only, never frequency sets or counters.
	Check *resilience.Checkpointer
	// Resume, when non-nil, is a snapshot previously written by Check. The
	// run starts at the first iteration and answers every node the snapshot
	// holds a verdict for from it, spending the counters the check would
	// have spent (see resume.go); Solutions and Stats are bit-identical to
	// an uninterrupted run. The snapshot's fingerprint must match this
	// input, and its verdicts must name nodes of this input's lattice.
	Resume *resilience.Snapshot
	// Budget, when non-nil, enforces a soft memory budget over the run's
	// long-lived frequency sets (cube and materialized views, failure
	// frontiers retained for rollup): over budget, new sets fall back to the
	// sparse kernel and materialization is shed; past the hard stop the run
	// aborts at the next boundary with resilience.ErrDegraded, returning
	// the solutions already proven.
	Budget *resilience.Accountant
	// Capture, when non-nil, collects a NodeRecord for every node whose
	// frequency set is checked, plus the delta screen's updated records —
	// the per-node half of a persistable RunState (see delta.go). Purely
	// observational: Solutions and Stats are bit-identical with capture on
	// or off.
	Capture *StateCapture
	// Delta, when non-nil, turns the run into an incremental
	// re-anonymization: checks are answered from the prior RunState's
	// records where the delta provably cannot flip them, and revalidated
	// otherwise. Only the Basic variant supports delta runs, and Budget
	// must be nil (Run validates this). Solutions and Stats are bit-identical
	// to a cold run over the same (edited) table.
	Delta *DeltaRun

	// abort is set by the first worker panic of a parallel phase so sibling
	// workers drain promptly through the same Err checks cancellation uses.
	// The run entry points install it on their private Input copy.
	abort *atomic.Bool
	// packing groups the quasi-identifier's small-domain columns for the
	// dense scan loop (see PackScans). nil scans through singleton groups.
	packing *relation.Packing
}

// StartSpan opens a phase span for this run: a child of Input.Span when one
// is set, a top-level span of Input.Trace otherwise. Nil-safe throughout —
// with tracing disabled it returns a nil span whose methods no-op.
func (in *Input) StartSpan(name string) *trace.Span {
	if in.Span != nil {
		return in.Span.Start(name)
	}
	return in.Trace.Start(name)
}

// Err reports the run's cancellation state: nil while the context (if any)
// is live, the context's error once it is done. It is cheap enough to call
// on every queue pop.
func (in *Input) Err() error {
	if in.abort != nil && in.abort.Load() {
		return context.Canceled
	}
	if in.Ctx == nil {
		return nil
	}
	return in.Ctx.Err()
}

// installAbort equips the input with the worker-panic drain flag; entry
// points call it on their private copy before spawning any goroutine.
func (in *Input) installAbort() {
	if in.abort == nil {
		in.abort = new(atomic.Bool)
	}
}

// abortSiblings makes every subsequent Err call report cancellation, so the
// workers of a parallel phase drain after one of them panicked.
func (in *Input) abortSiblings() {
	if in.abort != nil {
		in.abort.Store(true)
	}
}

// cancelled wraps a context error so callers can test it with errors.Is
// against context.Canceled or context.DeadlineExceeded.
func cancelled(err error) error {
	return fmt.Errorf("core: anonymization cancelled: %w", err)
}

// NewInput assembles an Input from parallel column/hierarchy slices, the
// shape dataset providers hand out. It panics if the slices have different
// lengths (a programming error); semantic validation is Validate's job.
func NewInput(t *relation.Table, cols []int, hs []*hierarchy.Hierarchy, k, maxSuppress int64) Input {
	if len(cols) != len(hs) {
		panic(fmt.Sprintf("core: NewInput got %d columns but %d hierarchies", len(cols), len(hs)))
	}
	qi := make([]QIAttr, len(cols))
	for i := range cols {
		qi[i] = QIAttr{Col: cols[i], H: hs[i]}
	}
	return Input{Table: t, QI: qi, K: k, MaxSuppress: maxSuppress}
}

// Validate checks the instance is well formed: within-range columns,
// hierarchies bound to the right dictionaries, sensible k and threshold.
func (in *Input) Validate() error {
	if in.Table == nil {
		return fmt.Errorf("core: nil table")
	}
	if len(in.QI) == 0 {
		return fmt.Errorf("core: empty quasi-identifier")
	}
	if in.K < 1 {
		return fmt.Errorf("core: k must be at least 1, got %d", in.K)
	}
	if in.MaxSuppress < 0 {
		return fmt.Errorf("core: negative suppression threshold %d", in.MaxSuppress)
	}
	seen := make(map[int]bool)
	for i, q := range in.QI {
		if q.Col < 0 || q.Col >= in.Table.NumCols() {
			return fmt.Errorf("core: QI attribute %d references column %d of a %d-column table", i, q.Col, in.Table.NumCols())
		}
		if seen[q.Col] {
			return fmt.Errorf("core: column %d appears twice in the quasi-identifier", q.Col)
		}
		seen[q.Col] = true
		if q.H == nil {
			return fmt.Errorf("core: QI attribute %d has no hierarchy", i)
		}
		if q.H.Dict(0) != in.Table.Dict(q.Col) {
			return fmt.Errorf("core: hierarchy for QI attribute %d (%s) is not bound to the table column's dictionary", i, q.H.Attr())
		}
	}
	return nil
}

// Heights returns the hierarchy height of each QI attribute in order — the
// radix vector of the generalization lattice.
func (in *Input) Heights() []int {
	hs := make([]int, len(in.QI))
	for i, q := range in.QI {
		hs[i] = q.H.Height()
	}
	return hs
}

// cols maps QI positions (dims) to table column indexes.
func (in *Input) cols(dims []int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = in.QI[d].Col
	}
	return out
}

// recodeTables returns, for each dim, the base-code → level-code table at
// the given level (nil for level 0).
func (in *Input) recodeTables(dims, levels []int) [][]int32 {
	out := make([][]int32, len(dims))
	for i := range dims {
		out[i] = in.QI[dims[i]].H.MapTo(levels[i])
	}
	return out
}

// cardAt returns the per-column cardinality bounds of the frequency set at
// the given generalization — the hierarchies' level sizes, known without
// touching the data. This is the metadata the adaptive kernel picks its
// representation from; nil (forcing the sparse kernel) when SparseKernel
// is set or the memory budget is over its soft limit (the first rung of the
// degradation ladder).
func (in *Input) cardAt(dims, levels []int) []int {
	if in.SparseKernel || !in.Budget.DenseAllowed() {
		return nil
	}
	card := make([]int, len(dims))
	for i := range dims {
		card[i] = in.QI[dims[i]].H.LevelSize(levels[i])
	}
	return card
}

// PackScans builds the column packing every later ScanFreq on this Input
// reads (relation.NewPacking over the quasi-identifier's columns), so a
// dense scan makes one table lookup per group of small-domain columns
// instead of one per column. Search entry points call it once per run on
// their private copy of the Input, so no Result keeps it; one-off scans
// skip it, since building it costs about as much as a scan.
func (in *Input) PackScans() {
	dims := make([]int, len(in.QI))
	for i := range dims {
		dims[i] = i
	}
	in.packing = relation.NewPacking(in.Table, in.cols(dims))
}

// ScanFreq computes the frequency set of the table with respect to the
// given generalization by a full scan — the paper's COUNT(*) group-by over
// the star schema. At Workers() > 1 the scan is chunked into row ranges
// counted concurrently on the work-stealing scheduler and merged. The
// result is identical at every worker count, and so is the Stats and
// Progress accounting (one table scan, every row counted once).
func (in *Input) ScanFreq(dims, levels []int) *relation.FreqSet {
	faultinject.Point("core.scan")
	f := relation.GroupCountParallelSched(in.Table, in.cols(dims), in.recodeTables(dims, levels), in.cardAt(dims, levels), in.Workers(), in.schedMetrics(), in.packing)
	in.Progress.AddTableScans(1)
	in.Progress.AddTuplesScanned(int64(in.Table.NumRows()))
	if in.Delta != nil {
		in.Delta.st.rowsRescanned.Add(int64(in.Table.NumRows()))
	}
	in.Metrics.ObserveFreqSetSize(f.Len())
	return f
}

// composeSteps builds the γ⁺ table from hierarchy level `from` to level
// `to` of QI attribute dim (nil when from == to).
func (in *Input) composeSteps(dim, from, to int) []int32 {
	if from == to {
		return nil
	}
	h := in.QI[dim].H
	table := append([]int32(nil), h.Step(from)...)
	for l := from + 1; l < to; l++ {
		step := h.Step(l)
		for i, c := range table {
			table[i] = step[c]
		}
	}
	return table
}

// RollupTo produces the frequency set at target levels from a finer
// frequency set over the same dims (the rollup property, §3). fromLevels
// must be componentwise ≤ levels.
func (in *Input) RollupTo(f *relation.FreqSet, dims, fromLevels, levels []int) *relation.FreqSet {
	maps := make([][]int32, len(dims))
	changed := false
	for i := range dims {
		if fromLevels[i] > levels[i] {
			panic(fmt.Sprintf("core: RollupTo from %v to %v is not a generalization", fromLevels, levels))
		}
		maps[i] = in.composeSteps(dims[i], fromLevels[i], levels[i])
		if maps[i] != nil {
			changed = true
		}
	}
	if !changed {
		return f
	}
	faultinject.Point("core.rollup")
	out := f.RecodeWithCard(maps, in.cardAt(dims, levels))
	in.Progress.AddRollups(1)
	in.Metrics.ObserveFreqSetSize(out.Len())
	in.Metrics.ObserveRollup(f.Len(), out.Len())
	return out
}

// CheckFreq applies the instance's k-anonymity test (with suppression
// threshold) to a frequency set.
func (in *Input) CheckFreq(f *relation.FreqSet) bool {
	return f.IsKAnonymous(in.K, in.MaxSuppress)
}

// grantFreq charges a long-lived frequency set (retained past the current
// node: a failure-frontier set, a cube set, a materialized view) to the
// memory accountant. Transient scan and rollup results are not charged.
func (in *Input) grantFreq(f *relation.FreqSet) {
	if in.Budget != nil && f != nil {
		in.Budget.Grant(f.MemBytes())
	}
}

// releaseFreq returns a granted frequency set's bytes to the accountant.
func (in *Input) releaseFreq(f *relation.FreqSet) {
	if in.Budget != nil && f != nil {
		in.Budget.Release(f.MemBytes())
	}
}

// Fingerprint pins a checkpoint to this exact problem instance: algorithm,
// lattice shape, parameters, and an FNV-1a hash of the table's QI columns,
// so a snapshot can never be resumed against different data. It is also
// the identity the service layer keys its result cache on (extended there
// with full-dataset and hierarchy-content hashes, which the checkpoint
// identity does not need: a snapshot already lives next to its run).
func (in *Input) Fingerprint(algorithm string) resilience.Fingerprint {
	h := fnv.New64a()
	rows := in.Table.NumRows()
	buf := make([]byte, 4*len(in.QI))
	for r := 0; r < rows; r++ {
		for i, q := range in.QI {
			put32(buf, i, in.Table.Code(r, q.Col))
		}
		h.Write(buf)
	}
	return resilience.Fingerprint{
		Algorithm:   algorithm,
		Heights:     in.Heights(),
		K:           in.K,
		MaxSuppress: in.MaxSuppress,
		Rows:        rows,
		TableHash:   h.Sum64(),
	}
}
