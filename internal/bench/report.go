package bench

// This file is the one schema every comparison experiment reports in. A
// cell is a reference run against a subject run of one workload; its
// coordinates, deterministic counters and identity flag are what
// cmd/benchcheck pins, while its wall times and informational values are
// free to vary with the machine.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"incognito/internal/core"
	"incognito/internal/dataset"
	"incognito/internal/relation"
)

// Cell is one comparison: a reference run against a subject run of the same
// workload (Basic Incognito against another algorithm, parallelism 1
// against N, a cold run against a delta run, a sparse operation against a
// dense one). The coordinates say what ran; an experiment leaves the ones
// that do not apply to it empty.
type Cell struct {
	Dataset      string `json:"dataset"`
	Rows         int    `json:"rows"`
	QISize       int    `json:"qi_size"`
	K            int64  `json:"k,omitempty"`
	Algo         string `json:"algo,omitempty"`
	Kernel       string `json:"kernel,omitempty"`
	Parallelism  int    `json:"parallelism,omitempty"`
	Op           string `json:"op,omitempty"`
	Levels       []int  `json:"levels,omitempty"`
	TargetLevels []int  `json:"target_levels,omitempty"`

	// Wall time of the two runs and their ratio RefMS/SubjectMS, taken from
	// the unrounded durations.
	RefMS     float64 `json:"ref_ms"`
	SubjectMS float64 `json:"subject_ms"`
	Speedup   float64 `json:"speedup"`

	// Counters are deterministic for a fixed (dataset, rows, seed, QI size,
	// k) and pinned by cmd/benchcheck against a golden file.
	Counters map[string]int64 `json:"counters"`
	// Info holds measured values that are never compared: scheduler
	// accounting, ratios derived from the counters.
	Info map[string]float64 `json:"info,omitempty"`
	// Identical reports whether the subject run reproduced the reference
	// run's results exactly: solutions for the paper experiment, solutions
	// and every Stats counter for the other engine runs, groups, counts and
	// order for frequency-set operations.
	Identical bool `json:"identical"`
}

// Coordinates lists the cell's coordinates as name/value pairs in schema
// order, leaving out the ones its experiment does not set.
func (c *Cell) Coordinates() [][2]string {
	out := [][2]string{{"dataset", c.Dataset}, {"rows", strconv.Itoa(c.Rows)}, {"qi_size", strconv.Itoa(c.QISize)}}
	for _, kv := range [][2]string{
		{"k", nonZero(c.K)},
		{"algo", c.Algo},
		{"kernel", c.Kernel},
		{"parallelism", nonZero(int64(c.Parallelism))},
		{"op", c.Op},
		{"levels", levels(c.Levels)},
		{"target_levels", levels(c.TargetLevels)},
	} {
		if kv[1] != "" {
			out = append(out, kv)
		}
	}
	return out
}

func nonZero(v int64) string {
	if v == 0 {
		return ""
	}
	return strconv.FormatInt(v, 10)
}

func levels(l []int) string {
	if l == nil {
		return ""
	}
	return fmt.Sprint(l)
}

// Key renders the coordinates as one "name=value ..." string.
func (c *Cell) Key() string {
	parts := make([]string, 0, 10)
	for _, kv := range c.Coordinates() {
		parts = append(parts, kv[0]+"="+kv[1])
	}
	return strings.Join(parts, " ")
}

// Report is the JSON document every comparison experiment emits (recorded
// at the repo root as BENCH_<experiment>.json, and pinned at reduced sizes
// by the golden files under results/).
type Report struct {
	Experiment string `json:"experiment"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Ref and Subject name the two runs of every cell.
	Ref     string `json:"ref"`
	Subject string `json:"subject"`
	// Info holds the experiment's settings, informational like a cell's.
	Info  map[string]float64 `json:"info,omitempty"`
	Cells []Cell             `json:"cells"`
}

// Workload is one (dataset, QI size, k) a comparison experiment runs on.
type Workload struct {
	Data   *dataset.Dataset
	QISize int
	K      int64
	// Algo is the algorithm the paper and parallel experiments run: the
	// subject timed against Basic Incognito, or the algorithm timed at
	// parallelism 1 and N. The kernel and incremental experiments ignore it.
	Algo Algo
}

// Options are the comparison experiments' settings.
type Options struct {
	Parallelism int // parallel: the subject runs' worker bound (0 = GOMAXPROCS)
}

// Progress receives a line per completed cell; a nil Progress disables
// reporting (Log on a nil Progress is a no-op).
type Progress func(format string, args ...interface{})

// Log reports one progress line; it is safe to call on a nil Progress.
func (p Progress) Log(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// experiment describes one comparison experiment: what its two runs are,
// its report-level settings, and how it turns one workload into cells.
type experiment struct {
	ref, subject string
	info         func(Options) map[string]float64
	cells        func(*comparison, Workload) error
}

var experiments = map[string]experiment{
	"paper": {ref: "basic", subject: "algo", cells: (*comparison).paper,
		info: func(Options) map[string]float64 { return nil }},
	"parallel": {ref: "serial", subject: "parallel", cells: (*comparison).parallel,
		info: func(o Options) map[string]float64 { return map[string]float64{"parallelism": float64(o.Parallelism)} }},
	"kernel": {ref: "sparse", subject: "dense", cells: (*comparison).kernel,
		info: func(Options) map[string]float64 { return map[string]float64{"dense_max_cells": relation.DenseMaxCells} }},
	"incremental": {ref: "cold", subject: "delta", cells: (*comparison).incremental,
		info: func(Options) map[string]float64 { return map[string]float64{"delta_every": DeltaEvery} }},
}

// comparison is one comparison experiment in progress.
type comparison struct {
	ctx      context.Context
	obs      Obs
	opts     Options
	progress Progress
	report   *Report
}

// Compare runs the named comparison experiment ("paper", "parallel",
// "kernel" or "incremental") on each workload in turn and returns its report. ctx
// cancels the sweep between and inside cells; obs (optional) instruments
// every engine run.
func Compare(ctx context.Context, obs Obs, name string, workloads []Workload, opts Options, progress Progress) (*Report, error) {
	e, ok := experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown comparison experiment %q", name)
	}
	c := &comparison{ctx: ctx, obs: obs, opts: opts, progress: progress, report: &Report{
		Experiment: name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Ref:        e.ref,
		Subject:    e.subject,
		Info:       e.info(opts),
	}}
	for _, w := range workloads {
		if err := e.cells(c, w); err != nil {
			return nil, err
		}
	}
	return c.report, nil
}

// side is one timed run of a cell.
type side struct {
	elapsed  time.Duration
	counters map[string]int64   // merged into the cell's counters
	info     map[string]float64 // merged into the cell's info
	result   any                // what the two sides must agree on
}

// measure is the one cell runner: it runs ref, then subject, back to back,
// fills in cell's times, counters, info and identity, logs it and appends
// it to the report. Where both sides count the same thing, the reference
// side's value is the cell's.
func (c *comparison) measure(cell Cell, ref, subject func() (side, error)) error {
	r, err := ref()
	if err != nil {
		return err
	}
	s, err := subject()
	if err != nil {
		return err
	}
	cell.RefMS, cell.SubjectMS = ms(r.elapsed), ms(s.elapsed)
	if s.elapsed > 0 {
		cell.Speedup = float64(r.elapsed) / float64(s.elapsed)
	}
	cell.Counters = merge(cell.Counters, s.counters, r.counters)
	cell.Info = merge(cell.Info, s.info, r.info)
	cell.Identical = reflect.DeepEqual(r.result, s.result)
	c.report.Cells = append(c.report.Cells, cell)
	c.progress.Log("%s", c.report.line(&cell))
	return nil
}

// merge copies every entry of srcs into dst, allocating dst on the first
// entry, and returns it.
func merge[V int64 | float64](dst map[string]V, srcs ...map[string]V) map[string]V {
	for _, src := range srcs {
		for k, v := range src {
			if dst == nil {
				dst = map[string]V{}
			}
			dst[k] = v
		}
	}
	return dst
}

// engineSide is the side of an engine run: its results and Stats must
// match the other side's, and its work counters are the cell's.
func engineSide(elapsed time.Duration, solutions, minHeight int, st core.Stats, result any) side {
	return side{elapsed: elapsed, result: result, counters: map[string]int64{
		"solutions":     int64(solutions),
		"min_height":    int64(minHeight),
		"nodes_checked": int64(st.NodesChecked),
		"nodes_marked":  int64(st.NodesMarked),
		"candidates":    int64(st.Candidates),
		"table_scans":   int64(st.TableScans),
		"rollups":       int64(st.Rollups),
	}}
}

// runSide is the side of one Run: its solutions, minimal height and Stats
// must match the other side's.
func runSide(m Measurement) side {
	return engineSide(m.Elapsed, len(m.Solutions), m.MinHeight, m.Stats, []any{m.Solutions, m.MinHeight, m.Stats})
}

// ms renders a duration as fractional milliseconds for the JSON reports,
// keeping the sub-microsecond part a microbenchmark's time per operation
// can have.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// line renders one cell as a progress or table line.
func (r *Report) line(c *Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s %.3fms, %s %.3fms (%.2fx, identical=%v)",
		c.Key(), r.Ref, c.RefMS, r.Subject, c.SubjectMS, c.Speedup, c.Identical)
	writeInfo(&b, c.Info)
	return b.String()
}

// writeInfo appends " name=value" for each info entry, sorted by name.
func writeInfo(b *strings.Builder, info map[string]float64) {
	names := make([]string, 0, len(info))
	for k := range info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v := info[k]; v == float64(int64(v)) {
			fmt.Fprintf(b, " %s=%d", k, int64(v))
		} else {
			fmt.Fprintf(b, " %s=%.4g", k, v)
		}
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as text, one line per cell.
func (r *Report) WriteTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s experiment: %s vs %s (GOMAXPROCS=%d", r.Experiment, r.Ref, r.Subject, r.GOMAXPROCS)
	writeInfo(&b, r.Info)
	b.WriteString(")\n")
	for i := range r.Cells {
		b.WriteString(r.line(&r.Cells[i]) + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
