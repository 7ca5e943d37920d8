package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	incognito "incognito"
	"incognito/internal/dataset"
	"incognito/internal/qispec"
	"incognito/internal/telemetry"
)

// opFunc runs one operation of a workload. The returned check compares
// its output with the workload's reference; it runs after the op's time
// is taken.
type opFunc func(root spanRef) (check func() error, err error)

// engineRun drives a single-client engine workload. It sets up
// size.datasets datasets, each from its own seed (setup_s is the median
// set-up time), runs one untimed warm-up op, then runs ops round-robin
// over the datasets until p.seconds of op time have passed, so a run's
// median averages over several inputs. Each op is one meter window; its
// output check runs outside the window. In a traced run every second op
// is traced, so bench.trace_overhead_pct compares traced and untraced ops
// of the same process.
func engineRun(p params, setup func(i int) (opFunc, error)) (*report, error) {
	r := &report{latency: map[string][]time.Duration{}}
	ops := make([]opFunc, p.size.datasets)
	for i := range ops {
		t0 := time.Now()
		var err error
		if ops[i], err = setup(i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0))
	}
	// do runs one op inside a window of m (nil: untimed) and checks it.
	do := func(op opFunc, tr *tracer, m *meter) (time.Duration, bool) {
		r.attempted++
		if m != nil {
			m.begin()
		}
		root := tr.begin("op")
		check, err := op(root)
		root.end()
		var d time.Duration
		if m != nil {
			d = m.end()
		}
		if err == nil {
			err = check()
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(p.log, "perfbench: op %d failed: %v\n", r.attempted, err)
			return d, false
		}
		return d, true
	}
	do(ops[0], nil, nil) // warm-up
	minOps := 1
	if p.tr != nil {
		minOps = 2 // one untraced, one traced
	}
	var traced []time.Duration
	settle()
	m := newMeter(p.tr != nil)
	defer m.stop()
	for n := 0; n < minOps || m.wall < p.seconds; n++ {
		tr := p.tr
		if n%2 == 0 {
			tr = nil
		}
		d, ok := do(ops[n%len(ops)], tr, m)
		switch {
		case !ok:
		case tr == nil:
			r.latency["latency_ms"] = append(r.latency["latency_ms"], d)
		default:
			traced = append(traced, d)
		}
	}
	m.stop()
	m.fill(r, len(r.latency["latency_ms"])+len(traced))
	if p.tr != nil {
		r.fillLayers(p.tr, m, traced)
	}
	return r, nil
}

// adultsCold is the cold CLI pipeline on synthetic Adults at the paper's
// 45,222 rows, QI = the first 8 attributes, k = 2, Basic Incognito at the
// library's default parallelism.
func adultsCold(p params) (*report, error) {
	return engineRun(p, func(i int) (opFunc, error) {
		dir, err := os.MkdirTemp(p.work, "adults-")
		if err != nil {
			return nil, err
		}
		d := dataset.Adults(p.size.adultsRows, subSeed(p.seed, fmt.Sprintf("adults-cold/%d", i)))
		var data bytes.Buffer
		if err := d.Table.WriteCSV(&data); err != nil {
			return nil, err
		}
		spec, err := writeHierarchies(dir, d, 8)
		if err != nil {
			return nil, err
		}
		const k = 2
		ref, err := cliPipeline(data.Bytes(), spec, incognito.Config{K: k, Parallelism: 1}, spanRef{})
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		refErr := checkKAnonymous(ref.csv, 8, k)
		return func(root spanRef) (func() error, error) {
			out, err := cliPipeline(data.Bytes(), spec, incognito.Config{K: k}, root)
			if err != nil {
				return nil, err
			}
			return func() error {
				if refErr != nil {
					return refErr
				}
				return out.equal(ref)
			}, nil
		}, nil
	})
}

// landsEndDelta is the CLI delta chain on synthetic Lands End at 100,000
// rows, QI 6, k 2: load the state set-up captured, re-anonymize after the
// same ~1% edit, release, and save the follow-on state. Every op does
// identical work.
func landsEndDelta(p params) (*report, error) {
	return engineRun(p, func(i int) (opFunc, error) {
		dir, err := os.MkdirTemp(p.work, "landsend-")
		if err != nil {
			return nil, err
		}
		d := dataset.LandsEnd(p.size.landsEndRows, subSeed(p.seed, fmt.Sprintf("landsend-delta/%d", i)))
		var data bytes.Buffer
		if err := d.Table.WriteCSV(&data); err != nil {
			return nil, err
		}
		spec, err := writeHierarchies(dir, d, 6)
		if err != nil {
			return nil, err
		}
		t, err := incognito.ReadCSV(bytes.NewReader(data.Bytes()))
		if err != nil {
			return nil, err
		}
		qi, err := qispec.ParseQI(spec, qispec.Options{AllowFiles: true})
		if err != nil {
			return nil, err
		}
		// The ~1% edit: every 200th row is duplicated and the next one
		// deleted, handed to the library as parsed CSV like the CLI's
		// -delta-add and -delta-del files.
		var addRows, delRows [][]string
		for i := 0; i+1 < d.Table.NumRows(); i += 200 {
			addRows = append(addRows, d.Table.Row(i))
			delRows = append(delRows, d.Table.Row(i+1))
		}
		add, err := csvRows(t.Columns(), addRows)
		if err != nil {
			return nil, err
		}
		del, err := csvRows(t.Columns(), delRows)
		if err != nil {
			return nil, err
		}
		const k = 2
		ctx := context.Background()
		captured, err := incognito.AnonymizeContext(ctx, t, qi, incognito.Config{K: k, RetainState: true})
		if err != nil {
			return nil, fmt.Errorf("state capture: %w", err)
		}
		statePath := filepath.Join(dir, "run.state")
		if err := incognito.SaveRunState(statePath, captured.State()); err != nil {
			return nil, err
		}
		edited, err := incognito.ApplyRowDelta(t, add, del)
		if err != nil {
			return nil, err
		}
		ref, err := releaseOf(ctx, edited, qi, incognito.Config{K: k}, spanRef{})
		if err != nil {
			return nil, fmt.Errorf("cold reference run: %w", err)
		}
		nextPath := filepath.Join(dir, "next.state")
		var first *incognito.DeltaCounters
		return func(root spanRef) (func() error, error) {
			s := root.child("resilience.state_load")
			state, err := incognito.LoadRunState(statePath)
			s.end()
			if err != nil {
				return nil, err
			}
			cfg := incognito.Config{K: k}
			progress, runMetrics := hooks(root, &cfg)
			s = root.child("core.delta")
			dres, err := incognito.AnonymizeDelta(ctx, t, qi, cfg, state, add, del)
			s.end()
			if err != nil {
				return nil, err
			}
			out, err := release(root, dres.Result)
			if err != nil {
				return nil, err
			}
			s = root.child("resilience.state_save")
			err = incognito.SaveRunState(nextPath, dres.State())
			s.end()
			if err != nil {
				return nil, err
			}
			c := dres.Counters
			recordStats(root, dres.Stats(), progress, runMetrics)
			root.set("core.rows_rescanned", float64(c.RowsRescanned))
			root.set("core.nodes_screened", float64(c.NodesScreened))
			root.set("core.nodes_revalidated", float64(c.NodesRevalidated))
			if root.tr != nil {
				if fi, err := os.Stat(nextPath); err == nil {
					root.set("resilience.state_mb", float64(fi.Size())/(1<<20))
				}
			}
			return func() error {
				if err := out.equal(ref); err != nil {
					return err
				}
				if first == nil {
					first = &c
				} else if c.RowsRescanned != first.RowsRescanned || c.NodesRevalidated != first.NodesRevalidated {
					return fmt.Errorf("delta counters moved: rows_rescanned %d, nodes_revalidated %d; first op had %d, %d",
						c.RowsRescanned, c.NodesRevalidated, first.RowsRescanned, first.NodesRevalidated)
				}
				return nil
			}, nil
		}, nil
	})
}

// output is what the checks compare: the solution set, the work counters
// and the released CSV.
type output struct {
	solutions [][]int
	stats     incognito.Stats
	csv       []byte
}

func (o *output) equal(ref *output) error {
	switch {
	case !reflect.DeepEqual(o.solutions, ref.solutions):
		return fmt.Errorf("solutions differ from the reference: %v vs %v", o.solutions, ref.solutions)
	case o.stats != ref.stats:
		return fmt.Errorf("stats differ from the reference: %+v vs %+v", o.stats, ref.stats)
	case sha256.Sum256(o.csv) != sha256.Sum256(ref.csv):
		return fmt.Errorf("released CSV differs from the reference (%d vs %d bytes)", len(o.csv), len(ref.csv))
	}
	return nil
}

// cliPipeline is what cmd/incognito does for one input: parse the CSV,
// parse the QI spec (csv: hierarchy files), anonymize, pick the
// minimum-height solution, apply it and encode the release as CSV.
func cliPipeline(data []byte, spec string, cfg incognito.Config, root spanRef) (*output, error) {
	s := root.child("relation.parse")
	t, err := incognito.ReadCSV(bytes.NewReader(data))
	s.end()
	if err != nil {
		return nil, err
	}
	s = root.child("qispec.parse")
	qi, err := qispec.ParseQI(spec, qispec.Options{AllowFiles: true})
	s.end()
	if err != nil {
		return nil, err
	}
	return releaseOf(context.Background(), t, qi, cfg, root)
}

// releaseOf anonymizes t and releases the minimum-height solution.
func releaseOf(ctx context.Context, t *incognito.Table, qi []incognito.QI, cfg incognito.Config, root spanRef) (*output, error) {
	progress, runMetrics := hooks(root, &cfg)
	s := root.child("core.anonymize")
	res, err := incognito.AnonymizeContext(ctx, t, qi, cfg)
	s.end()
	if err != nil {
		return nil, err
	}
	out, err := release(root, res)
	if err != nil {
		return nil, err
	}
	recordStats(root, res.Stats(), progress, runMetrics)
	return out, nil
}

// release picks the minimum-height solution, applies it, and encodes the
// released view.
func release(root spanRef, res *incognito.Result) (*output, error) {
	s := root.child("core.release")
	best, ok := res.Best(incognito.MinHeight())
	var view *incognito.Table
	var err error
	if ok {
		view, err = best.Apply()
	}
	s.end()
	if !ok {
		return nil, fmt.Errorf("no k-anonymous generalization")
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	s = root.child("relation.encode")
	err = view.WriteCSV(&buf)
	s.end()
	if err != nil {
		return nil, err
	}
	out := &output{stats: res.Stats(), csv: buf.Bytes()}
	for _, sol := range res.Solutions() {
		out.solutions = append(out.solutions, sol.Levels())
	}
	return out, nil
}

// hooks attaches the library's public progress and scheduler-metrics
// handles to a traced op's config; an untraced op runs without them.
func hooks(root spanRef, cfg *incognito.Config) (*incognito.Progress, *incognito.RunMetrics) {
	if root.tr == nil {
		return nil, nil
	}
	cfg.Progress = incognito.NewProgress()
	cfg.Metrics = telemetry.NewRegistry().NewRunMetrics()
	return cfg.Progress, cfg.Metrics
}

// recordStats puts a run's work counters on the op.
func recordStats(root spanRef, st incognito.Stats, progress *incognito.Progress, m *incognito.RunMetrics) {
	if root.tr == nil {
		return
	}
	root.set("core.table_scans", float64(st.TableScans))
	root.set("core.rollups", float64(st.Rollups))
	root.set("core.nodes_checked", float64(st.NodesChecked))
	root.set("core.nodes_marked", float64(st.NodesMarked))
	root.set("core.candidates", float64(st.Candidates))
	root.set("relation.rows_scanned", float64(progress.Snapshot().TuplesScanned))
	sm := m.Sched()
	root.set("sched.parallel_wall_ms", ms(sm.ParallelWall()))
	root.set("sched.utilization", sm.Utilization())
	root.set("sched.steals", float64(sm.Steals()))
	root.set("sched.tasks", float64(sm.Tasks()))
}

// checkKAnonymous groups the released CSV by its first qi columns,
// independently of the library, and fails on any class smaller than k.
func checkKAnonymous(data []byte, qi, k int) error {
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return fmt.Errorf("released CSV: %w", err)
	}
	classes := make(map[string]int)
	for _, rec := range recs[1:] {
		classes[strings.Join(rec[:qi], "\x00")]++
	}
	for key, n := range classes {
		if n < k {
			return fmt.Errorf("released class %q has %d rows, k is %d", strings.ReplaceAll(key, "\x00", ","), n, k)
		}
	}
	return nil
}

// writeHierarchies writes the dimension-table CSV of each of d's first n
// quasi-identifier attributes into dir, and returns the QI spec that
// loads them ("Age=csv:DIR/h0.csv;…").
func writeHierarchies(dir string, d *dataset.Dataset, n int) (string, error) {
	cols := d.Table.Columns()
	parts := make([]string, n)
	for i := range parts {
		path := filepath.Join(dir, fmt.Sprintf("h%d.csv", i))
		if err := d.Hierarchies[i].DimensionTable().WriteCSVFile(path); err != nil {
			return "", err
		}
		parts[i] = cols[d.QICols[i]] + "=csv:" + path
	}
	return strings.Join(parts, ";"), nil
}

// csvBytes encodes rows under header as CSV text.
func csvBytes(header []string, rows [][]string) ([]byte, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(header); err != nil {
		return nil, err
	}
	if err := w.WriteAll(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// csvRows round-trips rows through CSV text and the library's parser, so
// the program receives them as it would from a file.
func csvRows(header []string, rows [][]string) ([][]string, error) {
	data, err := csvBytes(header, rows)
	if err != nil {
		return nil, err
	}
	t, err := incognito.ReadCSV(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return t.Rows(), nil
}

// subSeed derives the seed of one dataset from the run's --seed.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() >> 1)
}
