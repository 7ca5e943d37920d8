package bench

// This file is the incremental experiment: re-anonymization after a ~1%
// row delta, measured against a cold recomputation over the edited table.
// A first run over the original table captures a RunState (base-level
// frequency groups plus per-node records); the delta run replays the
// Basic search over the edited table screening nodes from that state. The
// acceptance contract is counter-based so it holds on any box: Solutions
// and Stats bit-identical to the cold run in every cell, while rows
// re-scanned and nodes revalidated stay small fractions of the cold run's
// work. Timings are informational.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"incognito/internal/core"
	"incognito/internal/dataset"
	"incognito/internal/hierarchy"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// DeltaEvery is the sampling stride of the canonical ~1% edit: every
// DeltaEvery-th row is duplicated (an addition) and the row after it is
// deleted, so the delta touches 2/DeltaEvery of the table.
const DeltaEvery = 200

// IncrementalCell is one delta-vs-cold comparison at a fixed kernel and
// parallelism setting.
type IncrementalCell struct {
	Dataset     string `json:"dataset"`
	Rows        int    `json:"rows"` // edited-table rows
	QISize      int    `json:"qi_size"`
	K           int64  `json:"k"`
	Kernel      string `json:"kernel"` // "auto" or "sparse"
	Parallelism int    `json:"parallelism"`
	AddedRows   int    `json:"added_rows"`
	RemovedRows int    `json:"removed_rows"`

	ColdMS  float64 `json:"cold_ms"`
	DeltaMS float64 `json:"delta_ms"`
	Speedup float64 `json:"speedup"`

	// The cold run's results and work counters over the edited table —
	// deterministic for a fixed (dataset, rows, seed, qi, k), pinned by the
	// CI incremental-regression gate. The delta run must reproduce the
	// solutions and every Stats counter bit for bit (Identical below).
	Solutions    int `json:"solutions"`
	MinHeight    int `json:"min_height"`
	NodesChecked int `json:"nodes_checked"`
	NodesMarked  int `json:"nodes_marked"`
	Candidates   int `json:"candidates"`
	TableScans   int `json:"table_scans"`
	Rollups      int `json:"rollups"`
	// ColdRowsScanned is the cold run's row-scan volume: edited rows times
	// table scans — the denominator of the row-savings claim.
	ColdRowsScanned int64 `json:"cold_rows_scanned"`

	// The delta run's savings counters and their ratios against the cold
	// run. The headline claim is both ratios staying at or under 0.10
	// after a 1% delta.
	RowsRescanned         int64   `json:"rows_rescanned"`
	NodesScreened         int64   `json:"nodes_screened"`
	NodesRevalidated      int64   `json:"nodes_revalidated"`
	RowRescanRatio        float64 `json:"row_rescan_ratio"`
	NodeRevalidationRatio float64 `json:"node_revalidation_ratio"`

	// Identical reports whether the delta run reproduced the cold run's
	// solution set and every Stats counter — the tentpole guarantee.
	Identical bool `json:"identical"`
}

// IncrementalReport is the JSON document cmd/bench -experiment incremental
// emits (recorded at the repo root as BENCH_incremental.json).
type IncrementalReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	DeltaEvery int               `json:"delta_every"`
	Cells      []IncrementalCell `json:"cells"`
}

// NewIncrementalReport assembles a report header for the current process.
func NewIncrementalReport() *IncrementalReport {
	return &IncrementalReport{GOMAXPROCS: runtime.GOMAXPROCS(0), DeltaEvery: DeltaEvery}
}

// Incremental runs the delta-vs-cold comparison on one (dataset, QI size,
// k) workload across kernels {auto, sparse} × parallelism {1, 2}. The
// state is captured once, by a sequential run over the original table —
// exactly how a service retains it — and every cell's delta run screens
// against that same state under its own kernel/parallelism knobs.
func Incremental(ctx context.Context, obs Obs, d *dataset.Dataset, qiSize int, k int64, progress Progress) ([]IncrementalCell, error) {
	cols, hs, err := d.QISubset(qiSize)
	if err != nil {
		return nil, err
	}
	if len(d.Specs) < qiSize {
		return nil, fmt.Errorf("bench: dataset %s retains no hierarchy specs", d.Name)
	}
	specs := d.Specs[:qiSize]

	add, delIdx := sampleDelta(d.Table, DeltaEvery)
	del := make([][]string, len(delIdx))
	for i, idx := range delIdx {
		del[i] = d.Table.Row(idx)
	}
	edited, err := editTable(d.Table, add, delIdx)
	if err != nil {
		return nil, err
	}
	// The edited table assigns fresh dictionary codes, so the hierarchies
	// must be rebound; the retained state survives because it stores value
	// strings, not codes.
	editedHs, err := rebind(edited, cols, specs)
	if err != nil {
		return nil, err
	}
	added, err := deltaRows(cols, specs, add)
	if err != nil {
		return nil, err
	}
	removed, err := deltaRows(cols, specs, del)
	if err != nil {
		return nil, err
	}
	state, err := captureState(ctx, d.Table, cols, hs, k)
	if err != nil {
		return nil, err
	}

	var cells []IncrementalCell
	for _, sparse := range []bool{false, true} {
		for _, par := range []int{1, 2} {
			cold, coldDur, err := runBasic(ctx, obs, edited, cols, editedHs, k, par, sparse, nil)
			if err != nil {
				return nil, err
			}
			run := &core.DeltaRun{State: state, Added: added, Removed: removed}
			dres, deltaDur, err := runBasic(ctx, obs, edited, cols, editedHs, k, par, sparse, run)
			if err != nil {
				return nil, err
			}
			kernel := "auto"
			if sparse {
				kernel = "sparse"
			}
			cell := IncrementalCell{
				Dataset:         d.Name,
				Rows:            edited.NumRows(),
				QISize:          qiSize,
				K:               k,
				Kernel:          kernel,
				Parallelism:     par,
				AddedRows:       len(add),
				RemovedRows:     len(del),
				ColdMS:          float64(coldDur.Microseconds()) / 1000,
				DeltaMS:         float64(deltaDur.Microseconds()) / 1000,
				Solutions:       len(cold.Solutions),
				MinHeight:       cold.MinHeight(),
				NodesChecked:    cold.Stats.NodesChecked,
				NodesMarked:     cold.Stats.NodesMarked,
				Candidates:      cold.Stats.Candidates,
				TableScans:      cold.Stats.TableScans,
				Rollups:         cold.Stats.Rollups,
				ColdRowsScanned: int64(edited.NumRows()) * int64(cold.Stats.TableScans),
				Identical: cold.Stats == dres.Stats &&
					reflect.DeepEqual(cold.Solutions, dres.Solutions),
			}
			if dres.Delta != nil {
				cell.RowsRescanned = dres.Delta.RowsRescanned
				cell.NodesScreened = dres.Delta.NodesScreened
				cell.NodesRevalidated = dres.Delta.NodesRevalidated
			}
			if cell.ColdRowsScanned > 0 {
				cell.RowRescanRatio = float64(cell.RowsRescanned) / float64(cell.ColdRowsScanned)
			}
			if cell.NodesChecked > 0 {
				cell.NodeRevalidationRatio = float64(cell.NodesRevalidated) / float64(cell.NodesChecked)
			}
			if deltaDur > 0 {
				cell.Speedup = float64(coldDur) / float64(deltaDur)
			}
			progress.Log("%s | QID=%d k=%d | %-6s p=%d | cold %v, delta %v | rescan %.1f%%, revalidate %.1f%% (identical=%v)",
				d.Name, qiSize, k, kernel, par, coldDur.Round(time.Millisecond), deltaDur.Round(time.Millisecond),
				100*cell.RowRescanRatio, 100*cell.NodeRevalidationRatio, cell.Identical)
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// sampleDelta picks the canonical ~1% edit: duplicate every stride-th row,
// delete the row just after it.
func sampleDelta(t *relation.Table, stride int) (add [][]string, delIdx []int) {
	for i := 0; i+1 < t.NumRows(); i += stride {
		add = append(add, t.Row(i))
		delIdx = append(delIdx, i+1)
	}
	return add, delIdx
}

// editTable builds the edited table: t without the rows at delIdx, with
// the add rows appended.
func editTable(t *relation.Table, add [][]string, delIdx []int) (*relation.Table, error) {
	skip := make(map[int]bool, len(delIdx))
	for _, i := range delIdx {
		skip[i] = true
	}
	out := relation.MustNewTable(t.Columns()...)
	for i := 0; i < t.NumRows(); i++ {
		if skip[i] {
			continue
		}
		if err := out.AppendRow(t.Row(i)); err != nil {
			return nil, err
		}
	}
	for _, r := range add {
		if err := out.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rebind binds each spec to the edited table's dictionaries.
func rebind(t *relation.Table, cols []int, specs []*hierarchy.Spec) ([]*hierarchy.Hierarchy, error) {
	hs := make([]*hierarchy.Hierarchy, len(cols))
	for i, col := range cols {
		h, err := specs[i].Bind(t.Dict(col))
		if err != nil {
			return nil, fmt.Errorf("bench: rebinding %s: %w", specs[i].Attr, err)
		}
		hs[i] = h
	}
	return hs, nil
}

// deltaRows pre-generalizes full-schema delta rows through hierarchies
// bound to scratch dictionaries holding exactly the delta rows' values —
// what lets a deleted value generalize even when the edited table no
// longer contains it.
func deltaRows(cols []int, specs []*hierarchy.Spec, rows [][]string) ([]core.DeltaRow, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]core.DeltaRow, len(rows))
	for r := range out {
		out[r].Gen = make([][]string, len(cols))
	}
	for d, col := range cols {
		dict := relation.NewDict()
		for _, row := range rows {
			dict.Encode(row[col])
		}
		h, err := specs[d].Bind(dict)
		if err != nil {
			return nil, fmt.Errorf("bench: scratch-binding %s: %w", specs[d].Attr, err)
		}
		for r, row := range rows {
			gen := make([]string, h.Height()+1)
			for l := 0; l <= h.Height(); l++ {
				g, err := h.GeneralizeValue(l, row[col])
				if err != nil {
					return nil, err
				}
				gen[l] = g
			}
			out[r].Gen[d] = gen
		}
	}
	return out, nil
}

// captureState runs the original table once, sequentially, capturing the
// RunState a delta run screens against — the bench equivalent of a service
// job submitted with retain_state.
func captureState(ctx context.Context, t *relation.Table, cols []int, hs []*hierarchy.Hierarchy, k int64) (*resilience.RunState, error) {
	capture := &core.StateCapture{}
	in := core.NewInput(t, cols, hs, k, 0)
	in.Ctx = ctx
	in.Parallelism = 1
	in.Capture = capture
	if _, err := core.Run(in, core.Basic); err != nil {
		return nil, err
	}
	colNames := make([]string, len(hs))
	for i, h := range hs {
		colNames[i] = h.Attr()
	}
	return &resilience.RunState{
		Fingerprint: resilience.Fingerprint{Heights: in.Heights()},
		Cols:        colNames,
		K:           k,
		Rows:        t.NumRows(),
		Base:        core.CaptureBase(&in),
		Records:     capture.Records(),
	}, nil
}

// runBasic runs the Basic variant on one table, optionally as a delta run.
func runBasic(ctx context.Context, obs Obs, t *relation.Table, cols []int, hs []*hierarchy.Hierarchy, k int64, par int, sparse bool, delta *core.DeltaRun) (*core.Result, time.Duration, error) {
	in := core.NewInput(t, cols, hs, k, 0)
	in.Ctx = ctx
	in.Parallelism = par
	in.SparseKernel = sparse
	in.Trace = obs.Tracer
	in.Progress = obs.Progress
	in.Metrics = obs.Metrics
	if delta != nil {
		in.Capture = &core.StateCapture{}
		in.Delta = delta
	}
	start := time.Now()
	res, err := core.Run(in, core.Basic)
	if err != nil {
		return nil, 0, err
	}
	return res, time.Since(start), nil
}

// WriteJSON renders the report as indented JSON.
func (r *IncrementalReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as an aligned text table.
func (r *IncrementalReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Incremental re-anonymization after a 2/%d row delta (GOMAXPROCS=%d)\n",
		r.DeltaEvery, r.GOMAXPROCS); err != nil {
		return err
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s QID=%d k=%d %-6s p=%d cold %.1fms delta %.1fms speedup %.2fx rescan %.1f%% revalidate %.1f%% identical=%v\n",
			c.Dataset, c.QISize, c.K, c.Kernel, c.Parallelism, c.ColdMS, c.DeltaMS, c.Speedup,
			100*c.RowRescanRatio, 100*c.NodeRevalidationRatio, c.Identical); err != nil {
			return err
		}
	}
	return nil
}
