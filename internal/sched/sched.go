// Package sched is the repository's work-stealing task scheduler: a
// bounded worker pool where every worker owns a private deque of task
// indices, pops from its own bottom (LIFO, cache-warm), and steals from
// the top of a sibling's deque (FIFO, the oldest and therefore
// coarsest-grained work) only when its own deque runs dry. Uneven task
// costs — a family whose breadth-first search fails deep, a cube margin
// over a much larger parent — no longer serialize a phase on its slowest
// fixed shard: idle workers rebalance themselves.
//
// Two entry points cover the repository's phase shapes:
//
//   - Run executes a flat batch of n independent tasks;
//   - RunGraph executes n tasks under a dependency DAG (children become
//     ready when their last dependency finishes), which is how the cube
//     build overlaps what used to be barrier-separated waves.
//
// The scheduler never owns results and never merges anything: tasks write
// into caller-provided per-index slots and the caller commits them in
// index order after the phase returns. That split is what keeps Solutions
// and Stats bit-identical at every worker count — execution order is
// nondeterministic, commit order never is.
//
// Tasks must not panic across the scheduler: callers wrap fn with their
// own recover (core.runIndexedSafe does) so a worker goroutine never
// unwinds. workers ≤ 1, n ≤ 1, or a nil-task phase degenerates to a plain
// loop on the calling goroutine with zero allocations.
//
// A nil *Metrics disables all accounting at zero cost, following the
// repository's nil-handle convention (internal/trace, internal/telemetry).
//
// A task may itself call Run or RunGraph, as a family search does for its
// scans. Such a nested phase adds its tasks, steals and phase count to the
// same Metrics, but not its wall time, worker span or busy time: the
// enclosing task's busy time already covers them.
package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates scheduler activity across every phase of a run:
// steal counts, task counts, queue-depth high-water mark, and worker
// busy time against wall time (utilization). All methods are nil-safe
// and the counters are plain atomics, so hot paths never take a lock.
// A phase that starts while a task of a parallel phase on the same
// Metrics is running counts as nested, so a Metrics serves one run's
// phases, not two runs at once.
type Metrics struct {
	steals   atomic.Int64
	tasks    atomic.Int64
	parallel atomic.Int64 // phases dispatched onto worker goroutines
	inline   atomic.Int64 // phases run inline on the calling goroutine
	depth    atomic.Int64 // tasks currently queued across all deques
	depthMax atomic.Int64 // high-water mark of depth
	busyNS   atomic.Int64 // Σ worker nanoseconds spent inside tasks
	spanNS   atomic.Int64 // Σ workers × phase wall nanoseconds
	wallNS   atomic.Int64 // Σ phase wall nanoseconds of parallel phases
	workers  atomic.Int64 // worker count of the most recent parallel phase
	running  atomic.Int64 // tasks of top-level parallel phases executing now
}

// Steals returns how many tasks were taken from a sibling's deque.
func (m *Metrics) Steals() int64 {
	if m == nil {
		return 0
	}
	return m.steals.Load()
}

// Tasks returns how many tasks the scheduler has executed.
func (m *Metrics) Tasks() int64 {
	if m == nil {
		return 0
	}
	return m.tasks.Load()
}

// ParallelPhases returns how many phases dispatched worker goroutines.
func (m *Metrics) ParallelPhases() int64 {
	if m == nil {
		return 0
	}
	return m.parallel.Load()
}

// InlinePhases returns how many phases ran inline (single worker, a
// single task, or a caller-applied task-size floor).
func (m *Metrics) InlinePhases() int64 {
	if m == nil {
		return 0
	}
	return m.inline.Load()
}

// QueueDepth returns the tasks currently queued across all deques — a
// live gauge, normally zero between phases.
func (m *Metrics) QueueDepth() int64 {
	if m == nil {
		return 0
	}
	return m.depth.Load()
}

// QueueDepthPeak returns the high-water mark of QueueDepth.
func (m *Metrics) QueueDepthPeak() int64 {
	if m == nil {
		return 0
	}
	return m.depthMax.Load()
}

// Workers returns the worker count of the most recent parallel phase.
func (m *Metrics) Workers() int64 {
	if m == nil {
		return 0
	}
	return m.workers.Load()
}

// Busy returns the summed worker time spent inside tasks across every
// top-level parallel phase so far.
func (m *Metrics) Busy() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.busyNS.Load())
}

// WorkerSpan returns Σ workers × phase wall time over every top-level
// parallel phase — the denominator of Utilization.
func (m *Metrics) WorkerSpan() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.spanNS.Load())
}

// ParallelWall returns the summed wall-clock time of every top-level
// parallel (worker-dispatched) phase so far; a nested phase runs inside
// one of them. Subtracting it from a run's elapsed time gives the serial
// remainder — the Amdahl split the parallel benchmark report records per
// cell.
func (m *Metrics) ParallelWall() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.wallNS.Load())
}

// Utilization returns the fraction of scheduled worker time spent inside
// tasks, over every top-level parallel phase so far: Σ busy / Σ (workers
// × wall). 0 when nothing has been dispatched.
func (m *Metrics) Utilization() float64 {
	if m == nil {
		return 0
	}
	span := m.spanNS.Load()
	if span <= 0 {
		return 0
	}
	u := float64(m.busyNS.Load()) / float64(span)
	if u > 1 {
		u = 1 // clock skew between per-task and per-phase readings
	}
	return u
}

func (m *Metrics) addDepth(d int64) {
	if m == nil {
		return
	}
	n := m.depth.Add(d)
	for {
		max := m.depthMax.Load()
		if n <= max || m.depthMax.CompareAndSwap(max, n) {
			return
		}
	}
}

func (m *Metrics) notePhase(workers int, wall time.Duration, nested bool) {
	if m == nil {
		return
	}
	m.parallel.Add(1)
	m.workers.Store(int64(workers))
	if nested {
		return
	}
	m.spanNS.Add(int64(workers) * wall.Nanoseconds())
	m.wallNS.Add(wall.Nanoseconds())
}

func (m *Metrics) noteInline(n int) {
	if m == nil {
		return
	}
	m.inline.Add(1)
	m.tasks.Add(int64(n))
}

// deque is one worker's task queue: push and popBottom work the same end
// (LIFO for the owner), stealTop takes the opposite end (FIFO for
// thieves). Task granularity in this repository is a family search, a
// cube margin, or a ≥2048-row scan chunk — microseconds to seconds — so a
// plain mutex costs noise and keeps the structure trivially correct under
// the race detector.
type deque struct {
	mu  sync.Mutex
	buf []int
}

func (d *deque) push(t int) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

func (d *deque) popBottom() (int, bool) {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	t := d.buf[n-1]
	d.buf = d.buf[:n-1]
	d.mu.Unlock()
	return t, true
}

func (d *deque) stealTop() (int, bool) {
	d.mu.Lock()
	if len(d.buf) == 0 {
		d.mu.Unlock()
		return 0, false
	}
	t := d.buf[0]
	d.buf = d.buf[1:]
	d.mu.Unlock()
	return t, true
}

// pool is the state of one phase: the deques, the task body, and — for
// RunGraph — the dependency bookkeeping that feeds newly ready tasks back
// into the deque of the worker that unlocked them.
type pool struct {
	m      *Metrics
	deques []deque
	fn     func(worker, task int)

	remaining atomic.Int64   // tasks not yet finished
	indeg     []atomic.Int32 // nil for flat runs
	children  [][]int        // nil for flat runs

	mu     sync.Mutex // guards cond; pushes broadcast under it
	cond   *sync.Cond
	dyn    bool // tasks appear over time (RunGraph): idle workers sleep, not exit
	nested bool // started inside a running task of a phase on the same Metrics
}

// Run executes fn(worker, task) for every task in [0, n) on up to
// `workers` goroutines with work stealing. The worker argument is stable
// per goroutine (callers use it for worker-local accumulation); the task
// argument covers each index exactly once. workers is clamped to n;
// workers ≤ 1 or n ≤ 1 runs the plain inline loop in ascending task
// order on the calling goroutine, spawning nothing and allocating
// nothing.
func Run(m *Metrics, workers, n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		m.noteInline(n)
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p := &pool{m: m, deques: make([]deque, workers), fn: fn}
	p.remaining.Store(int64(n))
	// Seed round-robin, each deque pushed in descending order so the
	// owner's LIFO pop starts at its lowest index while thieves take its
	// highest — the work farthest from what the owner touches next.
	for i := n - 1; i >= 0; i-- {
		p.deques[i%workers].push(i)
	}
	m.addDepth(int64(n))
	p.dispatch(workers)
}

// RunGraph executes fn(worker, task) for every task in [0, n) under a
// dependency DAG: children[t] lists the tasks that may only start after
// task t finishes. Every task must be reachable from a root (a task no
// children list names), and task indices must be a topological order —
// dependencies have lower indices than their dependents — so the inline
// path can run a plain ascending loop. A finished task's newly ready
// children are pushed onto the finishing worker's own deque (they read
// what it just wrote, so they are the cache-warm continuation); idle
// workers steal them back out when the frontier is narrow.
func RunGraph(m *Metrics, workers, n int, children [][]int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		m.noteInline(n)
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	p := &pool{m: m, deques: make([]deque, workers), fn: fn, children: children, dyn: true}
	p.cond = sync.NewCond(&p.mu)
	p.remaining.Store(int64(n))
	p.indeg = make([]atomic.Int32, n)
	for _, cs := range children {
		for _, c := range cs {
			p.indeg[c].Add(1)
		}
	}
	// Seed the roots round-robin (descending, as in Run).
	seeded := 0
	for i := n - 1; i >= 0; i-- {
		if p.indeg[i].Load() == 0 {
			p.deques[seeded%workers].push(i)
			seeded++
		}
	}
	m.addDepth(int64(seeded))
	p.dispatch(workers)
}

// dispatch runs the worker loops: worker 0 is the calling goroutine,
// workers 1..w-1 are spawned. All of them have returned when it returns,
// so no goroutine outlives its phase (the leak test pins this).
func (p *pool) dispatch(workers int) {
	p.nested = p.m != nil && p.m.running.Load() > 0
	start := time.Now()
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p.worker(w)
		}(w)
	}
	p.worker(0)
	wg.Wait()
	p.m.notePhase(workers, time.Since(start), p.nested)
}

func (p *pool) worker(w int) {
	for {
		t, ok := p.deques[w].popBottom()
		if !ok {
			t, ok = p.steal(w)
		}
		if !ok {
			if !p.dyn {
				return // flat run: no task will ever appear again
			}
			if !p.sleep(w) {
				return // every task finished
			}
			continue
		}
		p.m.addDepth(-1)
		p.run(w, t)
	}
}

// run executes one task and, on the graph path, releases its children
// and wakes sleepers. The remaining count only reaches zero after the
// finishing task's children were pushed, so a woken worker that sees
// zero knows the whole phase is drained.
func (p *pool) run(w, t int) {
	switch {
	case p.m == nil:
		p.fn(w, t)
	case p.nested:
		p.fn(w, t)
		p.m.tasks.Add(1)
	default:
		p.m.running.Add(1)
		begin := time.Now()
		p.fn(w, t)
		p.m.busyNS.Add(time.Since(begin).Nanoseconds())
		p.m.running.Add(-1)
		p.m.tasks.Add(1)
	}
	if p.indeg != nil {
		released := 0
		for _, c := range p.children[t] {
			if p.indeg[c].Add(-1) == 0 {
				p.deques[w].push(c)
				released++
			}
		}
		if released > 0 {
			p.m.addDepth(int64(released))
		}
		if p.remaining.Add(-1) == 0 || released > 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
		return
	}
	p.remaining.Add(-1)
}

// steal scans the other deques round-robin from the worker's right-hand
// neighbor and takes the top (oldest) task of the first non-empty one.
func (p *pool) steal(w int) (int, bool) {
	for i := 1; i < len(p.deques); i++ {
		if t, ok := p.deques[(w+i)%len(p.deques)].stealTop(); ok {
			if p.m != nil {
				p.m.steals.Add(1)
			}
			return t, true
		}
	}
	return 0, false
}

// sleep blocks until new work may exist or the phase is drained; it
// returns false when every task has finished. Pushes broadcast under
// p.mu after the deque write, and the pre-wait re-scan takes each
// deque's lock, so a push between this worker's failed steal and its
// wait is never missed.
func (p *pool) sleep(w int) bool {
	p.mu.Lock()
	for p.remaining.Load() > 0 && !p.anyQueued() {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return p.remaining.Load() > 0
}

func (p *pool) anyQueued() bool {
	for i := range p.deques {
		d := &p.deques[i]
		d.mu.Lock()
		n := len(d.buf)
		d.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}
