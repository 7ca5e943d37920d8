package telemetry

import (
	"incognito/internal/sched"
	"incognito/internal/trace"
)

// This file bridges the run-scoped observability (internal/trace spans,
// hot-path distribution observations) into the process-scoped registry.

// RunMetrics is the hot-path distribution hook threaded through
// core.Input: pre-resolved histogram handles so instrumented code pays one
// mutex-guarded observe, never a registry lookup. A nil *RunMetrics (the
// default) disables every observation at zero cost, like a nil tracer.
type RunMetrics struct {
	freqSetGroups *Histogram
	rollupFanIn   *Histogram
	sched         *sched.Metrics
}

// NewRunMetrics resolves the run-metric handles against the registry.
// Nil-safe: a nil registry yields a nil (disabled) RunMetrics.
func (r *Registry) NewRunMetrics() *RunMetrics {
	if r == nil {
		return nil
	}
	m := &RunMetrics{
		freqSetGroups: r.Histogram("incognito_freqset_groups",
			"Groups per materialized frequency set (scan, rollup, or cube margin).", SizeBuckets),
		rollupFanIn: r.Histogram("incognito_rollup_fanin",
			"Source groups folded into each output group by a rollup or cube margin.", FanInBuckets),
		sched: &sched.Metrics{},
	}
	registerScheduler(r, m.sched)
	return m
}

// registerScheduler exposes a scheduler-metrics handle as export-time
// gauges: its values live in the scheduler's atomics, so the hot paths
// never touch the registry (the GaugeFunc bridge, like live Progress).
func registerScheduler(r *Registry, m *sched.Metrics) {
	r.GaugeFunc("incognito_sched_steals_total",
		"Tasks taken from a sibling worker's deque by the work-stealing scheduler.",
		func() float64 { return float64(m.Steals()) })
	r.GaugeFunc("incognito_sched_tasks_total",
		"Tasks executed by the work-stealing scheduler.",
		func() float64 { return float64(m.Tasks()) })
	r.GaugeFunc("incognito_sched_queue_depth",
		"Tasks currently queued across all worker deques.",
		func() float64 { return float64(m.QueueDepth()) })
	r.GaugeFunc("incognito_sched_queue_depth_peak",
		"High-water mark of tasks queued across all worker deques.",
		func() float64 { return float64(m.QueueDepthPeak()) })
	r.GaugeFunc("incognito_sched_workers",
		"Worker count of the most recent parallel phase.",
		func() float64 { return float64(m.Workers()) })
	r.GaugeFunc("incognito_sched_worker_utilization",
		"Fraction of scheduled worker time spent inside tasks (Σ busy / Σ workers × wall).",
		m.Utilization)
	r.GaugeFunc("incognito_sched_phases_total",
		"Scheduler phases by dispatch mode: parallel spawned workers, inline ran on the calling goroutine (single worker, single task, or below the task-size floor).",
		func() float64 { return float64(m.ParallelPhases()) }, "mode", "parallel")
	r.GaugeFunc("incognito_sched_phases_total",
		"Scheduler phases by dispatch mode: parallel spawned workers, inline ran on the calling goroutine (single worker, single task, or below the task-size floor).",
		func() float64 { return float64(m.InlinePhases()) }, "mode", "inline")
}

// Sched returns the run's scheduler-metrics handle (nil when metrics are
// disabled — the scheduler itself treats a nil handle as disabled).
func (m *RunMetrics) Sched() *sched.Metrics {
	if m == nil {
		return nil
	}
	return m.sched
}

// ObserveFreqSetSize records the group count of a materialized frequency
// set.
func (m *RunMetrics) ObserveFreqSetSize(groups int) {
	if m == nil {
		return
	}
	m.freqSetGroups.Observe(float64(groups))
}

// ObserveRollup records one rollup's fan-in: how many source groups were
// folded into each output group on average.
func (m *RunMetrics) ObserveRollup(fromGroups, toGroups int) {
	if m == nil || toGroups <= 0 {
		return
	}
	m.rollupFanIn.Observe(float64(fromGroups) / float64(toGroups))
}

// counterHelp documents the known trace counters in the exposition; an
// unknown counter gets a generic line rather than being dropped.
var counterHelp = map[string]string{
	"nodes_checked":   "Generalization nodes whose k-anonymity was tested explicitly.",
	"nodes_marked":    "Nodes skipped via the generalization property.",
	"candidates":      "Candidate nodes across all iterations.",
	"table_scans":     "Frequency sets built by scanning the base table.",
	"rollups":         "Frequency sets derived from other frequency sets.",
	"cube_freq_sets":  "Zero-generalization frequency sets materialized by the cube.",
	"delta_screen_ns": "Nanoseconds delta runs spent deciding nodes from their saved records.",
}

// RecordTrace folds an exported trace document into the registry: every
// span's duration feeds the phase-latency histogram (labeled by span
// name), and the document's aggregate counters feed monotonic counters
// named incognito_<counter>_total. Call it once per completed run; it is
// how the span tree of internal/trace becomes Prometheus-readable without
// the hot paths ever touching the registry. No-op when either side is nil.
func RecordTrace(r *Registry, doc *trace.Document) {
	if r == nil || doc == nil {
		return
	}
	doc.Walk(func(_ []string, s *trace.SpanDoc) {
		r.Histogram("incognito_phase_seconds", "Wall-clock duration of pipeline phase spans, by span name.",
			LatencyBuckets, "phase", s.Name).Observe(float64(s.DurUS) / 1e6)
	})
	for _, name := range doc.CounterNames() {
		help, ok := counterHelp[name]
		if !ok {
			help = "Trace counter " + name + "."
		}
		r.Counter("incognito_"+name+"_total", help).Add(doc.SumCounter(name))
	}
}
