package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversAllIndices: every index runs exactly once at every worker
// count, flat and graph.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 9, 100} {
		for _, n := range []int{0, 1, 2, 5, 64, 257} {
			var hits sync.Map
			var count atomic.Int64
			Run(nil, workers, n, func(_, i int) {
				if _, dup := hits.LoadOrStore(i, true); dup {
					t.Errorf("workers=%d n=%d: index %d ran twice", workers, n, i)
				}
				count.Add(1)
			})
			if got := int(count.Load()); got != n {
				t.Errorf("workers=%d n=%d: ran %d tasks", workers, n, got)
			}
		}
	}
}

// chainGraph builds a layered DAG: layer l has `width` tasks, each
// depending on its same-position task in the previous layer.
func chainGraph(layers, width int) (n int, children [][]int) {
	n = layers * width
	children = make([][]int, n)
	for l := 0; l+1 < layers; l++ {
		for w := 0; w < width; w++ {
			t := l*width + w
			children[t] = []int{t + width}
		}
	}
	return n, children
}

// TestRunGraphRespectsDependencies: a task never starts before every
// dependency finished, at several worker counts, with uneven task costs.
func TestRunGraphRespectsDependencies(t *testing.T) {
	n, children := chainGraph(6, 7)
	indeg := make([]int, n)
	deps := make([][]int, n)
	for p, cs := range children {
		for _, c := range cs {
			indeg[c]++
			deps[c] = append(deps[c], p)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		done := make([]atomic.Bool, n)
		var violations atomic.Int64
		RunGraph(nil, workers, n, children, func(_, i int) {
			for _, d := range deps[i] {
				if !done[d].Load() {
					violations.Add(1)
				}
			}
			if i%3 == 0 {
				time.Sleep(time.Millisecond) // uneven costs exercise stealing
			}
			done[i].Store(true)
		})
		if violations.Load() != 0 {
			t.Fatalf("workers=%d: %d dependency violations", workers, violations.Load())
		}
		for i := range done {
			if !done[i].Load() {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

// TestRunGraphInlineIsTopological: the inline path runs tasks in
// ascending index order, which the API requires to be topological.
func TestRunGraphInlineIsTopological(t *testing.T) {
	n, children := chainGraph(4, 3)
	var order []int
	RunGraph(nil, 1, n, children, func(_, i int) { order = append(order, i) })
	for i, task := range order {
		if task != i {
			t.Fatalf("inline graph order[%d] = %d, want ascending", i, task)
		}
	}
}

// TestStealingOccurs: with one worker blocked on a long task, the other
// workers must steal the blocked worker's remaining seed tasks.
func TestStealingOccurs(t *testing.T) {
	m := &Metrics{}
	const workers, n = 4, 64
	release := make(chan struct{})
	var once sync.Once
	Run(m, workers, n, func(_, i int) {
		if i == 0 {
			<-release // worker holding task 0 stalls; its deque must drain via steals
		}
		// The last other task to finish releases the stalled one.
		defer once.Do(func() {
			go func() {
				time.Sleep(10 * time.Millisecond)
				close(release)
			}()
		})
	})
	if m.Steals() == 0 {
		t.Fatal("no steals recorded with a stalled worker")
	}
	if m.Tasks() != n {
		t.Fatalf("tasks = %d, want %d", m.Tasks(), n)
	}
}

// TestMetricsAccounting: parallel and inline phases, queue depth
// high-water, worker count, and utilization land in sane ranges.
func TestMetricsAccounting(t *testing.T) {
	m := &Metrics{}
	Run(m, 4, 32, func(_, i int) { time.Sleep(100 * time.Microsecond) })
	Run(m, 1, 8, func(_, i int) {})
	if m.ParallelPhases() != 1 || m.InlinePhases() != 1 {
		t.Fatalf("phases = %d parallel / %d inline, want 1/1", m.ParallelPhases(), m.InlinePhases())
	}
	if m.Tasks() != 40 {
		t.Fatalf("tasks = %d, want 40", m.Tasks())
	}
	if m.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after phases drained, want 0", m.QueueDepth())
	}
	if peak := m.QueueDepthPeak(); peak < 28 || peak > 32 {
		t.Fatalf("queue depth peak %d, want ≈32 (32 seeded, ≤4 popped before high-water)", peak)
	}
	if m.Workers() != 4 {
		t.Fatalf("workers = %d, want 4", m.Workers())
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0, 1]", u)
	}
	// The time accountings behind Utilization and the bench report's Amdahl
	// split: one parallel phase ran, so its wall time was recorded, busy
	// time is at most worker-span (4 × wall), and span is at least wall.
	if m.ParallelWall() <= 0 {
		t.Fatalf("parallel wall %v, want > 0 after a parallel phase", m.ParallelWall())
	}
	if m.Busy() <= 0 || m.Busy() > m.WorkerSpan() {
		t.Fatalf("busy %v outside (0, span=%v]", m.Busy(), m.WorkerSpan())
	}
	if m.WorkerSpan() < m.ParallelWall() {
		t.Fatalf("worker span %v below phase wall %v", m.WorkerSpan(), m.ParallelWall())
	}
}

// TestNestedPhasesCountedOnce: a task that runs a phase of its own on
// the same Metrics adds that phase's tasks and phase count, but not its
// wall time, worker span or busy time, which the enclosing task already
// covers. Summing them would report more parallel wall time than the
// outer call took.
func TestNestedPhasesCountedOnce(t *testing.T) {
	m := &Metrics{}
	start := time.Now()
	Run(m, 2, 4, func(_, _ int) {
		Run(m, 2, 4, func(_, _ int) { time.Sleep(time.Millisecond) })
	})
	elapsed := time.Since(start)
	if m.Tasks() != 4+4*4 {
		t.Fatalf("tasks = %d, want 20 (4 outer, 16 nested)", m.Tasks())
	}
	if m.ParallelPhases() != 1+4 {
		t.Fatalf("parallel phases = %d, want 5", m.ParallelPhases())
	}
	if m.ParallelWall() <= 0 || m.ParallelWall() > elapsed {
		t.Fatalf("parallel wall %v outside (0, %v], the outer call's elapsed time", m.ParallelWall(), elapsed)
	}
	if m.Busy() > m.WorkerSpan() {
		t.Fatalf("busy %v above worker span %v", m.Busy(), m.WorkerSpan())
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v outside (0, 1]", u)
	}
	// The next top-level phase is counted in full again.
	wall := m.ParallelWall()
	Run(m, 2, 4, func(_, _ int) { time.Sleep(time.Millisecond) })
	if m.ParallelWall() <= wall {
		t.Fatalf("parallel wall stayed at %v after a top-level phase", wall)
	}
}

// TestNilMetricsSafe: every accessor works on the nil handle.
func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	Run(m, 4, 16, func(_, i int) {})
	if m.Steals() != 0 || m.Tasks() != 0 || m.Utilization() != 0 || m.QueueDepthPeak() != 0 {
		t.Fatal("nil Metrics accessors must return zero")
	}
	if m.Busy() != 0 || m.WorkerSpan() != 0 || m.ParallelWall() != 0 ||
		m.Workers() != 0 || m.QueueDepth() != 0 || m.ParallelPhases() != 0 || m.InlinePhases() != 0 {
		t.Fatal("nil Metrics time accessors must return zero")
	}
}

// TestInlineRunDoesNotAllocate pins the task-count clamp of the
// satellite fix: dispatching fewer tasks than workers must not spawn
// idle goroutines, and the degenerate single-task (or single-worker)
// phase must not allocate at all.
func TestInlineRunDoesNotAllocate(t *testing.T) {
	fn := func(_, i int) {}
	for _, c := range []struct{ workers, n int }{{8, 1}, {1, 64}, {16, 0}} {
		if allocs := testing.AllocsPerRun(100, func() { Run(nil, c.workers, c.n, fn) }); allocs != 0 {
			t.Errorf("Run(workers=%d, n=%d) allocated %.1f times per run, want 0", c.workers, c.n, allocs)
		}
	}
	before := runtime.NumGoroutine()
	Run(nil, 8, 1, fn)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("single-task run left %d goroutines, had %d", after, before)
	}
}

// TestWorkerIDsStable: worker ids passed to fn stay in [0, workers) —
// the contract worker-local accumulation (the chunked scan) relies on.
func TestWorkerIDsStable(t *testing.T) {
	const workers, n = 3, 48
	var bad atomic.Int64
	Run(nil, workers, n, func(w, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker id", bad.Load())
	}
}
