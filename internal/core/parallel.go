package core

// This file implements intra-run parallelism. Iteration i of Fig. 8
// decomposes into one independent candidate graph per i-attribute subset
// ("family"): families share no nodes and no edges, and the breadth-first
// search of one family never reads another's state. The parallel driver
// therefore schedules each family as one task of the work-stealing
// scheduler (internal/sched) with its own Stats, then merges survivors
// and counters in family order. Families have wildly uneven costs — one
// fails deep while its siblings pass at the roots — which is exactly what
// stealing absorbs and a fixed shard assignment serialized on. Because
// the per-family search is byte-for-byte the sequential search and the
// merge runs in family-index order on the coordinator, the survivor sets
// — and hence the solutions — are identical at every worker count; the
// Stats counters are per-family sums, so they are identical too.

import (
	"fmt"
	"runtime"
	"strings"

	"incognito/internal/faultinject"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
	"incognito/internal/sched"
	"incognito/internal/trace"
)

// Workers resolves the Input's Parallelism knob to a concrete worker
// count: 0 means GOMAXPROCS, 1 (or less) means strictly sequential, and
// anything larger is used as given.
func (in *Input) Workers() int {
	switch {
	case in.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	case in.Parallelism < 1:
		return 1
	}
	return in.Parallelism
}

// workersFor clamps the resolved worker count to the number of scheduled
// tasks, so a phase never spawns a goroutine that could not receive work
// (the scheduler clamps again defensively; this keeps the accounting and
// the trace attrs honest at the call sites).
func (in *Input) workersFor(tasks int) int {
	w := in.Workers()
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		return 1
	}
	return w
}

// parallelFloorRows is the task-size floor for parallel dispatch,
// measured in base-table rows (the unit every task's cost scales with: a
// family search scans the table, a cube margin walks a frequency set no
// larger than it). Phases over inputs smaller than this run inline on
// the calling goroutine — same task structure, same results, no
// goroutine or scheduling overhead. Measured on this repo's datasets
// (BenchmarkDispatchFloor): below ~100 rows the goroutine handoff costs
// about half as much as the tasks themselves, at ~500 rows it is down to
// ~10% of task cost and shrinking linearly with table size, so above the
// floor dispatch overhead is noise next to even a modest speedup.
const parallelFloorRows = 512

// schedMetrics returns the run's scheduler-metrics handle (nil — i.e.
// disabled — unless telemetry is on).
func (in *Input) schedMetrics() *sched.Metrics { return in.Metrics.Sched() }

// floorWorkers applies the task-size floor: phases whose per-task work is
// bounded by a table this small run inline regardless of the parallelism
// knob.
func (in *Input) floorWorkers(workers int) int {
	if in.Table.NumRows() < parallelFloorRows {
		return 1
	}
	return workers
}

// runIndexedSafe executes fn(0), …, fn(n-1) on the work-stealing
// scheduler with worker panic isolation: each index runs under a recover
// wrapper that converts a panic into a *resilience.PanicError naming the
// index's site and flips the input's abort flag, so sibling workers drain
// through their ordinary Err checks instead of crashing the process. The
// lowest-index panic is returned; results committed by other indices are
// discarded by the caller alongside the error, so no partial state
// escapes. The recover wrapper also guards the inline (workers ≤ 1) path,
// so panic semantics do not depend on the dispatch decision.
func runIndexedSafe(in *Input, workers, n int, site func(i int) string, fn func(i int)) error {
	panics := make([]*resilience.PanicError, n)
	sched.Run(in.schedMetrics(), workers, n, func(_, i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = resilience.AsPanicError(site(i), r)
				in.abortSiblings()
			}
		}()
		fn(i)
	})
	for _, pe := range panics {
		if pe != nil {
			return pe
		}
	}
	return nil
}

// runGraphSafe is runIndexedSafe over a dependency DAG (sched.RunGraph):
// children[i] lists the tasks unlocked by task i, and task indices must
// be topologically ordered. A panicked task aborts the siblings; its
// dependents still "run" but drain immediately through the Err check
// their fn must perform, so the pool always terminates.
func runGraphSafe(in *Input, workers, n int, children [][]int, site func(i int) string, fn func(i int)) error {
	panics := make([]*resilience.PanicError, n)
	sched.RunGraph(in.schedMetrics(), workers, n, children, func(_, i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = resilience.AsPanicError(site(i), r)
				in.abortSiblings()
			}
		}()
		fn(i)
	})
	for _, pe := range panics {
		if pe != nil {
			return pe
		}
	}
	return nil
}

// rootSource is a variant's root frequency-set provider for one search
// component. count spends the Stats counters a cold run spends to obtain a
// root's set; build produces the set and counts nothing. A root whose
// verdict is replayed or screened only counts; a root that is checked, or
// whose set a later rollup needs, is built too.
type rootSource struct {
	count func(n *lattice.Node)
	build func(n *lattice.Node) *relation.FreqSet
}

// rootSourceMaker builds the root provider for one search component, given
// the component's roots; all the counter writes of the provider must go to
// stats, so the parallel search can hand every family its own Stats and
// merge them deterministically.
type rootSourceMaker func(roots []*lattice.Node, stats *Stats) rootSource

// searchGraphFamilies runs the Fig. 8 breadth-first search over a whole
// candidate graph. At Workers() ≤ 1 it takes the sequential reference path
// — one height-ordered queue over the full graph. Otherwise it searches
// the graph's families concurrently and merges the per-family survivor
// maps and Stats in family order. Both paths return identical survivors
// and identical counters (see the package comment above). Each component
// search records a child span of parent — one "component" span covering
// the whole graph on the sequential path, one "family" span per attribute
// subset on the parallel path — carrying that component's work counters,
// and the worker loop checks the input's context before starting a family.
//
// With checkpointing on, rp saves a snapshot as each family completes on
// the parallel path, and at each breadth-first level on the sequential
// one. complete is false when the search bailed early at the memory
// budget's hard stop; cancellation is reported by in.Err as before, and a
// worker panic or a failed save comes back as the error.
func searchGraphFamilies(in *Input, g *lattice.Graph, maker rootSourceMaker, stats *Stats, parent *trace.Span, rp *replay, proven map[int]bool) (surv map[int]bool, complete bool, err error) {
	if g.Len() == 0 {
		return map[int]bool{}, true, nil
	}
	fams := g.Families()
	if in.Workers() <= 1 || len(fams) <= 1 {
		sp := parent.Start("component")
		sp.SetAttr("families", len(fams))
		sp.SetAttr("nodes", g.Len())
		before := *stats
		surv, complete, err = searchComponent(in, g, g.Nodes(), g.Roots(), maker, stats, rp, in.Check != nil, proven)
		stats.Sub(before).recordOn(sp)
		sp.End()
		return surv, complete, err
	}
	results := make([]map[int]bool, len(fams))
	famStats := make([]Stats, len(fams))
	completes := make([]bool, len(fams))
	errs := make([]error, len(fams))
	// The family *path* is chosen by the parallelism knob above; whether it
	// actually dispatches goroutines is a separate decision, clamped to the
	// task count and floored by input size. Results are identical either
	// way — the inline loop runs the same tasks in index order.
	dispatch := in.floorWorkers(in.workersFor(len(fams)))
	werr := runIndexedSafe(in, dispatch, len(fams), func(i int) string { return fmt.Sprintf("family[%d]", i) }, func(i int) {
		if in.Err() != nil {
			return // cancelled: the driver discards everything anyway
		}
		if in.Budget.Exhausted() {
			return // hard stop: reported as complete=false below
		}
		faultinject.Point("core.family")
		nodes := fams[i]
		sp := parent.Start("family")
		if sp != nil { // the names are built only for a span that records them
			sp.SetAttr("dims", in.attrNames(nodes[0].Dims))
		}
		sp.SetAttr("nodes", len(nodes))
		st := &famStats[i]
		results[i], completes[i], errs[i] = searchComponent(in, g, nodes, familyRoots(g, nodes), maker, st, rp, false, nil)
		st.recordOn(sp)
		sp.End()
		if completes[i] && errs[i] == nil && in.Err() == nil {
			errs[i] = rp.save("family")
		}
	})
	if werr != nil {
		// Rethrow the typed worker panic so the variant's run-level guard
		// prefixes the span path with the run root, same as the cube and
		// materialization waves.
		panic(werr)
	}
	for _, e := range errs {
		if e != nil {
			return nil, false, e
		}
	}
	surv = make(map[int]bool, g.Len())
	complete = true
	for i := range results {
		for id, ok := range results[i] {
			surv[id] = ok
		}
		stats.Add(famStats[i])
		if !completes[i] {
			complete = false
		}
	}
	return surv, complete, nil
}

// attrNames names the quasi-identifier attributes at dims — their table
// columns — in QI order, comma-joined.
func (in *Input) attrNames(dims []int) string {
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = in.Table.Columns()[in.QI[d].Col]
	}
	return strings.Join(names, ",")
}

// familyRoots returns the roots (no incoming edge) among one family's
// nodes, in ID order — the same relative order g.Roots() yields them in.
func familyRoots(g *lattice.Graph, nodes []*lattice.Node) []*lattice.Node {
	var out []*lattice.Node
	for _, n := range nodes {
		if len(g.Down(n.ID)) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// groupRootsByFamily partitions roots by attribute subset, preserving
// first-seen order, so the super-roots provider scans families in the same
// deterministic order whether it is handed one family or the whole graph.
func groupRootsByFamily(roots []*lattice.Node) [][]*lattice.Node {
	idx := make(map[string]int)
	var out [][]*lattice.Node
	for _, r := range roots {
		k := r.DimsKey()
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], r)
	}
	return out
}
