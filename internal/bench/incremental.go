package bench

// This file is the incremental experiment: re-anonymization after a ~1%
// row delta, measured against a cold recomputation over the edited table.
// A first run over the original table captures a RunState (per-node
// records plus digests of the table's generalization chains); the delta
// run replays the Basic search over the edited table, checking the
// state's digests against it and screening nodes from the records. The
// acceptance contract is counter-based so it holds on any box: Solutions
// and Stats bit-identical to the cold run in every cell, while rows
// re-scanned and nodes revalidated stay small fractions of the cold run's
// work. Timings are informational.

import (
	"fmt"
	"time"

	"incognito/internal/core"
	"incognito/internal/hierarchy"
	"incognito/internal/relation"
)

// DeltaEvery is the sampling stride of the canonical ~1% edit: every
// DeltaEvery-th row is duplicated (an addition) and the row after it is
// deleted, so the delta touches 2/DeltaEvery of the table.
const DeltaEvery = 200

// incremental runs the delta-vs-cold comparison on one workload across
// kernels {auto, sparse} × parallelism {1, 2}. The state is captured once,
// by a sequential run over the original table — exactly how a service
// retains it — and every cell's delta run screens against that same state
// under its own kernel/parallelism knobs. Only core.Run is timed.
func (c *comparison) incremental(w Workload) error {
	d := w.Data
	cols, hs, err := d.QISubset(w.QISize)
	if err != nil {
		return err
	}
	if len(d.Specs) < w.QISize {
		return fmt.Errorf("bench: dataset %s retains no hierarchy specs", d.Name)
	}
	specs := d.Specs[:w.QISize]

	add, delIdx := sampleDelta(d.Table, DeltaEvery)
	del := make([][]string, len(delIdx))
	for i, idx := range delIdx {
		del[i] = d.Table.Row(idx)
	}
	edited, err := editTable(d.Table, add, delIdx)
	if err != nil {
		return err
	}
	// The edited table assigns fresh dictionary codes, so the hierarchies
	// must be rebound; the retained state survives because its bands and
	// digests are built from value strings, not codes.
	editedHs, err := rebind(edited, cols, specs)
	if err != nil {
		return err
	}
	added, removed, err := core.DeltaRows(cols, specs, add, del)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	// Capture the state the way a retain_state job does: one sequential
	// run over the original table.
	orig := core.NewInput(d.Table, cols, hs, w.K, 0)
	orig.Ctx = c.ctx
	orig.Parallelism = 1
	orig.Capture = &core.StateCapture{}
	if _, err := core.Run(orig, core.Basic); err != nil {
		return err
	}
	state := core.RunStateOf(&orig, orig.Capture, core.Basic.String())

	rows := int64(edited.NumRows())
	for _, sparse := range []bool{false, true} {
		for _, par := range []int{1, 2} {
			kernel := "auto"
			if sparse {
				kernel = "sparse"
			}
			cell := Cell{Dataset: d.Name, Rows: edited.NumRows(), QISize: w.QISize, K: w.K, Kernel: kernel, Parallelism: par,
				Counters: map[string]int64{"added_rows": int64(len(add)), "removed_rows": int64(len(del))}}
			var cold map[string]int64
			err := c.measure(cell, func() (side, error) {
				res, dur, err := c.runBasic(edited, cols, editedHs, w.K, par, sparse, nil)
				if err != nil {
					return side{}, err
				}
				s := engineSide(dur, len(res.Solutions), res.MinHeight(), res.Stats, []any{res.Stats, res.Solutions})
				// The cold run's row-scan volume: the denominator of the
				// row-savings claim.
				s.counters["cold_rows_scanned"] = rows * int64(res.Stats.TableScans)
				cold = s.counters
				return s, nil
			}, func() (side, error) {
				run := &core.DeltaRun{State: state, Added: added, Removed: removed}
				res, dur, err := c.runBasic(edited, cols, editedHs, w.K, par, sparse, run)
				if err != nil {
					return side{}, err
				}
				var dc core.DeltaCounters
				if res.Delta != nil {
					dc = *res.Delta
				}
				return side{elapsed: dur, result: []any{res.Stats, res.Solutions},
					counters: map[string]int64{
						"rows_rescanned":    dc.RowsRescanned,
						"nodes_screened":    dc.NodesScreened,
						"nodes_revalidated": dc.NodesRevalidated,
					},
					info: map[string]float64{
						"row_rescan_ratio":        ratio(dc.RowsRescanned, cold["cold_rows_scanned"]),
						"node_revalidation_ratio": ratio(dc.NodesRevalidated, cold["nodes_checked"]),
					}}, nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
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

// runBasic runs the Basic variant on one table, optionally as a delta
// run, and times core.Run alone.
func (c *comparison) runBasic(t *relation.Table, cols []int, hs []*hierarchy.Hierarchy, k int64, par int, sparse bool, delta *core.DeltaRun) (*core.Result, time.Duration, error) {
	in := core.NewInput(t, cols, hs, k, 0)
	in.Ctx = c.ctx
	in.Parallelism = par
	in.SparseKernel = sparse
	in.Trace = c.obs.Tracer
	in.Progress = c.obs.Progress
	in.Metrics = c.obs.Metrics
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
