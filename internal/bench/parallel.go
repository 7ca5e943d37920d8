package bench

// This file is the parallel experiment: each Incognito variant timed at
// parallelism 1 (the reference) and at the requested worker bound (the
// subject), with the scheduler's own accounting of the parallel run.

import (
	"runtime"
	"time"

	"incognito/internal/sched"
	"incognito/internal/telemetry"
)

// schedCounters is a point-in-time reading of the scheduler's cumulative
// counters; cells record the difference between two readings so each
// parallel run's numbers are its own.
type schedCounters struct {
	steals, tasks    int64
	busy, span, wall time.Duration
}

func schedSnapshot(m *sched.Metrics) schedCounters {
	return schedCounters{m.Steals(), m.Tasks(), m.Busy(), m.WorkerSpan(), m.ParallelWall()}
}

func (c schedCounters) sub(o schedCounters) schedCounters {
	return schedCounters{c.steals - o.steals, c.tasks - o.tasks,
		c.busy - o.busy, c.span - o.span, c.wall - o.wall}
}

// parallel runs the serial-vs-parallel comparison of the workload's
// algorithm, serial and parallel back to back. The subject side's info
// records the environment and the scheduler's accounting of the parallel
// run: the process GOMAXPROCS, the worker bound the run used (the knob as
// given, or GOMAXPROCS for 0 — it is not clamped to GOMAXPROCS), and the
// Amdahl split of its wall time — time inside worker-dispatched scheduler
// phases against the serial remainder.
func (c *comparison) parallel(w Workload) error {
	obs := c.obs
	if obs.Metrics == nil {
		// The cells record the scheduler's steal/task/phase-time counters
		// even when the caller asked for no exported telemetry; a throwaway
		// registry provides the handles.
		obs.Metrics = telemetry.NewRegistry().NewRunMetrics()
	}
	sm := obs.Metrics.Sched()
	cell := Cell{Dataset: w.Data.Name, Rows: w.Data.Table.NumRows(), QISize: w.QISize, K: w.K, Algo: w.Algo.String()}
	return c.measure(cell, func() (side, error) {
		m, err := Run(c.ctx, obs, w.Data, w.QISize, w.K, w.Algo, 1)
		return runSide(m), err
	}, func() (side, error) {
		before := schedSnapshot(sm)
		m, err := Run(c.ctx, obs, w.Data, w.QISize, w.K, w.Algo, c.opts.Parallelism)
		sched := schedSnapshot(sm).sub(before)
		s := runSide(m)
		s.info = map[string]float64{
			"gomaxprocs":        float64(runtime.GOMAXPROCS(0)),
			"workers":           float64(m.Workers),
			"parallel_phase_ms": ms(sched.wall),
			"serial_phase_ms":   ms(max(m.Elapsed-sched.wall, 0)),
			"steals":            float64(sched.steals),
			"sched_tasks":       float64(sched.tasks),
			"utilization":       0,
		}
		if sched.span > 0 {
			// Capped at 1 against clock skew between per-task and
			// per-phase readings.
			s.info["utilization"] = min(float64(sched.busy)/float64(sched.span), 1)
		}
		return s, err
	})
}
