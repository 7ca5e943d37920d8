package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records the traced run's spans and per-op values in memory; they
// are written out once, at exit. Every span belongs to one op (one call of
// a workload's operation) and has a parent: the op's root span, or 0 for
// the root itself. The spans wrap the benchmark's own calls into each
// layer — the program is not instrumented. A nil *tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[int]map[string]float64 // op → per-layer value recorded on it
	nextOp int
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), values: make(map[int]map[string]float64)}
}

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	tr *tracer
	id int
}

// begin opens the root span of a new op.
func (t *tracer) begin(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.nextOp++
	op := t.nextOp
	t.mu.Unlock()
	return t.open(op, 0, name)
}

func (t *tracer) open(op, parent int, name string) spanRef {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return spanRef{tr: t, id: len(t.spans)}
}

// child opens a span under s, in the same op.
func (s spanRef) child(name string) spanRef {
	if s.tr == nil {
		return spanRef{}
	}
	s.tr.mu.Lock()
	op := s.tr.spans[s.id-1].Op
	s.tr.mu.Unlock()
	return s.tr.open(op, s.id, name)
}

// end closes s.
func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	now := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].End = now
	s.tr.mu.Unlock()
}

// set records a per-layer value (a counter or a time the program
// reports) on s's op.
func (s spanRef) set(name string, v float64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	op := s.tr.spans[s.id-1].Op
	if s.tr.values[op] == nil {
		s.tr.values[op] = make(map[string]float64)
	}
	s.tr.values[op][name] = v
}

// layers derives the per-layer values of every traced op: a span named X
// contributes X_ms (its durations summed per op), a recorded value counts
// as itself, and bench.unattributed_ms is an op's root duration minus the
// durations of the root's direct children. Each metric is the median over
// the ops that carry it.
func (t *tracer) layers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	perOp := make(map[string]map[int]float64)
	add := func(name string, op int, v float64) {
		if perOp[name] == nil {
			perOp[name] = make(map[int]float64)
		}
		perOp[name][op] += v
	}
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / float64(time.Millisecond)
		switch {
		case s.Parent == 0:
			add("bench.unattributed_ms", s.Op, d)
		default:
			add(s.Name+"_ms", s.Op, d)
			if t.spans[s.Parent-1].Parent == 0 {
				add("bench.unattributed_ms", s.Op, -d)
			}
		}
	}
	for op, vals := range t.values {
		for name, v := range vals {
			add(name, op, v)
		}
	}
	out := make(map[string]float64, len(perOp))
	for name, ops := range perOp {
		vs := make([]float64, 0, len(ops))
		for _, v := range ops {
			vs = append(vs, v)
		}
		out[name] = median(vs)
	}
	return out
}

// writeJSON dumps every span and recorded value to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans  []span                     `json:"spans"`
		Values map[int]map[string]float64 `json:"values"`
	}{t.spans, t.values}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics renders the traced run's per-layer values with the units
// BENCHMARK.json declares. A layer the workload never enters reads 0.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: vals[name], Unit: unit}
	}
	return out
}

// layerUnits lists every per-layer metric of BENCHMARK.json with its unit.
var layerUnits = map[string]string{
	"relation.parse_ms":           "ms",
	"qispec.parse_ms":             "ms",
	"relation.encode_ms":          "ms",
	"relation.rows_scanned":       "count",
	"core.anonymize_ms":           "ms",
	"core.table_scans":            "count",
	"core.rollups":                "count",
	"core.nodes_checked":          "count",
	"core.nodes_marked":           "count",
	"core.candidates":             "count",
	"core.release_ms":             "ms",
	"sched.parallel_wall_ms":      "ms",
	"sched.utilization":           "1",
	"sched.steals":                "count",
	"sched.tasks":                 "count",
	"core.delta_ms":               "ms",
	"core.rows_rescanned":         "count",
	"core.nodes_screened":         "count",
	"core.nodes_revalidated":      "count",
	"resilience.state_load_ms":    "ms",
	"resilience.state_save_ms":    "ms",
	"resilience.state_mb":         "MB",
	"service.submit_ms":           "ms",
	"service.hit_submit_ms":       "ms",
	"service.delta_submit_ms":     "ms",
	"service.poll_ms":             "ms",
	"service.queue_wait_ms":       "ms",
	"service.run_ms":              "ms",
	"service.delta_run_ms":        "ms",
	"service.result_ms":           "ms",
	"service.result_kb":           "KB",
	"service.hit_ms":              "ms",
	"service.delta_job_ms":        "ms",
	"service.journal_kb_per_job":  "KB",
	"service.cache_hit_ratio":     "1",
	"service.runs_per_submission": "1",
	"service.polls_per_job":       "count",
	"runtime.alloc_mb_per_op":     "MB",
	"runtime.gc_cycles_per_op":    "count",
	"bench.unattributed_ms":       "ms",
	"bench.trace_overhead_pct":    "%",
}
