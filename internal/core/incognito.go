package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"

	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// Variant selects which member of the Incognito family to run (§3.1, §3.3).
type Variant int

const (
	// Basic is the algorithm of Fig. 8: one base-table scan per root of each
	// candidate graph, rollup everywhere else.
	Basic Variant = iota
	// SuperRoots groups each family's roots and performs a single scan at
	// their meet (the "super-root"), deriving every root's frequency set by
	// rollup (§3.3.1).
	SuperRoots
	// Cube pre-computes the zero-generalization frequency sets of every
	// quasi-identifier subset bottom-up (data-cube style) and never scans
	// the base table during the search (§3.3.2).
	Cube
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Basic:
		return "Basic Incognito"
	case SuperRoots:
		return "Super-roots Incognito"
	case Cube:
		return "Cube Incognito"
	}
	return "unknown"
}

// Result is the outcome of a run: the set of ALL k-anonymous full-domain
// generalizations, each as a level vector over the quasi-identifier in
// input order, sorted by height then lexicographically, plus run counters.
type Result struct {
	Solutions [][]int
	Stats     Stats
	// Delta reports the work a delta run actually did (nil on cold runs).
	// Stats above are bit-identical to a cold run by construction; these
	// counters are where the savings show.
	Delta *DeltaCounters
}

// MinHeight returns the smallest solution height, or -1 if there are no
// solutions (possible only when even the top of the lattice fails, e.g. k
// larger than the table).
func (r *Result) MinHeight() int {
	if len(r.Solutions) == 0 {
		return -1
	}
	return height(r.Solutions[0])
}

// MinimalSolutions returns the solutions of minimum height — the minimal
// full-domain generalizations in the sense of Samarati (§2.1).
func (r *Result) MinimalSolutions() [][]int {
	var out [][]int
	for _, s := range r.Solutions {
		if height(s) == r.MinHeight() {
			out = append(out, s)
		}
	}
	return out
}

func height(levels []int) int {
	h := 0
	for _, l := range levels {
		h += l
	}
	return h
}

// Run executes the chosen Incognito variant and returns every k-anonymous
// full-domain generalization of the input. It is sound and complete (§3.2).
// If Input.Ctx is cancelled mid-run, the error wraps the context's error.
// A panic on any worker goroutine is isolated: siblings drain and the run
// returns a *resilience.PanicError naming the panicking worker's span path.
// With Input.Budget set, a run that passes the budget's hard stop returns
// the solutions proven so far alongside an error wrapping
// resilience.ErrDegraded.
func Run(in Input, v Variant) (res *Result, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Delta != nil {
		if v != Basic {
			return nil, fmt.Errorf("core: delta runs support only %s, not %s", Basic, v)
		}
		if in.Budget != nil {
			return nil, fmt.Errorf("core: delta runs do not support memory budgets")
		}
		if err := in.Delta.prepare(&in); err != nil {
			return nil, err
		}
	}
	in.installAbort()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, resilience.AsPanicError("run", r)
		}
	}()
	// Basic and Super-roots scan the table for their roots. A delta run
	// scans only the roots it cannot screen, too few to repay the packing,
	// and Cube only rolls up after its one base-level scan, so neither
	// packs.
	if in.Delta == nil && v != Cube {
		in.PackScans()
	}
	var cube *CubeIndex
	var stats Stats
	if v == Cube {
		cube = BuildCube(&in)
		if cerr := in.Err(); cerr != nil {
			return nil, cancelled(cerr)
		}
		stats.Add(cube.BuildStats)
		if in.Budget.Exhausted() {
			// The cube alone blew past the hard stop; no search happened, so
			// there are no proven solutions to return.
			return &Result{Stats: stats}, degradedErr(&in)
		}
	}
	res, rerr := run(&in, v, cube)
	if rerr != nil {
		if res != nil && errors.Is(rerr, resilience.ErrDegraded) {
			stats.Add(res.Stats)
			res.Stats = stats
			return res, rerr
		}
		return nil, rerr
	}
	stats.Add(res.Stats)
	res.Stats = stats
	if in.Delta != nil {
		c := in.Delta.Counters()
		res.Delta = &c
	}
	return res, nil
}

// RunWithCube executes Cube Incognito against an already-built cube,
// so callers (and the Fig. 12 experiment) can separate the pre-computation
// cost from the marginal anonymization cost.
func RunWithCube(in Input, cube *CubeIndex) (res *Result, err error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if cube == nil {
		return nil, fmt.Errorf("core: RunWithCube needs a cube; call BuildCube first")
	}
	if in.Delta != nil {
		return nil, fmt.Errorf("core: delta runs support only %s, not %s", Basic, Cube)
	}
	// A cube built for this quasi-identifier contains every non-empty
	// subset; probing the full set catches cubes built for a different
	// (smaller or reordered) Input before the search dereferences them.
	fullDims := make([]int, len(in.QI))
	for i := range fullDims {
		fullDims[i] = i
	}
	if cube.Get(fullDims) == nil || cube.NumSets() != (1<<len(in.QI))-1 {
		return nil, fmt.Errorf("core: cube was built for a different quasi-identifier (%d sets, want %d)",
			cube.NumSets(), (1<<len(in.QI))-1)
	}
	in.installAbort()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, resilience.AsPanicError("run", r)
		}
	}()
	return run(&in, Cube, cube)
}

// run dispatches the variant's root frequency-set provider into the shared
// outer loop.
func run(in *Input, v Variant, cube *CubeIndex) (*Result, error) {
	return runSearch(in, variantRootSource(in, v, cube), v.String())
}

// runSearch is the outer loop of Fig. 8: iterate over subset sizes, search
// each candidate graph breadth-first, then generate the next graph from
// the survivors. Each iteration records a trace span (candidate count plus
// per-component search counters) and checks the input's context, so runs
// are observable and cancellable at every subset size.
//
// With Input.Check set, a snapshot of the verdicts so far is saved after
// every iteration but the last (and at family/level boundaries inside each
// one, see searchGraphFamilies) and cleared when the run completes. With
// Input.Resume set, the run still starts at the first iteration, but every
// node the snapshot holds a verdict for is answered from it (see
// resume.go).
func runSearch(in *Input, maker rootSourceMaker, label string) (*Result, error) {
	sp := in.StartSpan("search")
	sp.SetAttr("algorithm", label)
	in.Progress.SetPhase(label)
	defer sp.End()
	if in.Delta != nil {
		defer func() { sp.Add(CounterDeltaScreenNS, in.Delta.st.screenNS.Load()) }()
	}
	rp, err := newReplay(in, label)
	if err != nil {
		return nil, err
	}
	if in.Resume != nil {
		sp.SetAttr("resumed_verdicts", len(in.Resume.Verdicts))
	}
	ctx := in.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var stats Stats
	n := len(in.QI)
	ids := lattice.NewIDGen()
	graph := lattice.FirstIteration(in.Heights(), ids)
	res := &Result{}

	for i := 1; ; i++ {
		if err := in.Err(); err != nil {
			return nil, cancelled(err)
		}
		if in.Budget.Exhausted() {
			res.Stats = stats
			return res, degradedErr(in)
		}
		it := sp.Start("iteration")
		it.SetAttr("subset_size", i)
		it.Add(CounterCandidates, int64(graph.Len()))
		stats.Candidates += graph.Len()
		in.Progress.AddCandidates(int64(graph.Len()))
		var proven map[int]bool
		if in.Budget != nil {
			proven = make(map[int]bool)
		}
		surv, complete, err := searchGraphFamilies(in, graph, maker, &stats, it, rp, proven)
		it.End()
		if err != nil {
			return nil, err
		}
		if cerr := in.Err(); cerr != nil {
			return nil, cancelled(cerr)
		}
		if !complete {
			// The memory budget's hard stop: return what was proven. Only
			// the final iteration's proven nodes are full-QI solutions.
			if i == n {
				for _, node := range graph.Nodes() {
					if proven[node.ID] {
						res.Solutions = append(res.Solutions, append([]int(nil), node.Levels...))
					}
				}
				SortSolutions(res.Solutions)
			}
			res.Stats = stats
			return res, degradedErr(in)
		}
		if i == n {
			for _, node := range graph.Nodes() {
				if surv[node.ID] {
					res.Solutions = append(res.Solutions, append([]int(nil), node.Levels...))
				}
			}
			break
		}
		if err := rp.save("iteration"); err != nil {
			return nil, err
		}
		if cerr := in.Err(); cerr != nil {
			return nil, cancelled(cerr)
		}
		if graph, err = lattice.Generate(ctx, graph, surv, ids); err != nil {
			return nil, cancelled(err)
		}
	}
	SortSolutions(res.Solutions)
	res.Stats = stats
	if err := in.Check.Clear(); err != nil {
		return res, err
	}
	return res, nil
}

// SortSolutions orders level vectors by height, then lexicographically —
// the canonical solution order shared by every algorithm in this module.
func SortSolutions(sols [][]int) {
	sort.Slice(sols, func(i, j int) bool {
		hi, hj := height(sols[i]), height(sols[j])
		if hi != hj {
			return hi < hj
		}
		for x := range sols[i] {
			if sols[i][x] != sols[j][x] {
				return sols[i][x] < sols[j][x]
			}
		}
		return false
	})
}

// nodeQueue is the height-ordered queue of Fig. 8, a container/heap
// implementation ordered by (height, ID).
type nodeQueue []*lattice.Node

// Len implements heap.Interface.
func (q nodeQueue) Len() int { return len(q) }

// Less orders by height, breaking ties by ID for determinism.
func (q nodeQueue) Less(i, j int) bool {
	hi, hj := q[i].Height(), q[j].Height()
	if hi != hj {
		return hi < hj
	}
	return q[i].ID < q[j].ID
}

// Swap implements heap.Interface.
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*lattice.Node)) }

// Pop implements heap.Interface. The popped slot is nilled out so the
// backing array does not pin *lattice.Node values past their lifetime.
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return x
}

// searchComponent is the Fig. 8 breadth-first search over one self-contained
// component of a candidate graph — the whole graph on the sequential path,
// or a single family on the parallel path — with a caller-chosen root
// frequency-set provider; the Incognito variants differ only in that
// provider. nodes must be closed under g's edges (no edge may leave the
// set) and roots must be exactly the members of nodes with no incoming
// edge.
//
// Each node is answered in one place, first from a resumed snapshot's
// verdict, then by the delta screen, and only then by a real check.
// levelSaves makes rp save a snapshot at every breadth-first level
// boundary. proven, when non-nil, collects the nodes known k-anonymous
// (checked-passed or marked), the best-so-far set a budget-aborted run
// returns. complete is false when the search bailed early (cancellation or
// the budget's hard stop); err is a failed save.
func searchComponent(in *Input, g *lattice.Graph, nodes, roots []*lattice.Node, maker rootSourceMaker, stats *Stats, rp *replay, levelSaves bool, proven map[int]bool) (surv map[int]bool, complete bool, err error) {
	surv = make(map[int]bool, len(nodes))
	for _, n := range nodes {
		surv[n.ID] = true
	}
	if len(nodes) == 0 {
		return surv, true, nil
	}
	src := maker(roots, stats)

	marked := make(map[int]bool)
	processed := make(map[int]bool)
	parentOf := make(map[int]int) // node → the failed parent that enqueued it
	// freqs holds the frequency sets of failed nodes, for rollup. A node
	// answered without a set (a replayed or screened verdict) holds nil
	// until a rollup needs it and force builds it.
	freqs := make(map[int]*relation.FreqSet)
	// pendingUps[id] counts the unprocessed direct generalizations of a
	// failed node; when it reaches zero that node's frequency set can never
	// be needed again and is released, bounding memory on large graphs.
	pendingUps := make(map[int]int)
	// rebuilt keeps the sets force built for nodes freqs had already
	// released, so no set is built twice.
	var rebuilt map[int]*relation.FreqSet
	if in.Budget != nil {
		defer func() {
			for _, f := range freqs {
				in.releaseFreq(f)
			}
			for _, f := range rebuilt {
				in.releaseFreq(f)
			}
		}()
	}
	// force returns a failed node's frequency set, building it when its
	// verdict came without one: a root through the provider, anything else
	// by rollup from its rollup parent, forced in turn. The counters for
	// these sets were spent when the verdicts were answered, so force
	// counts nothing.
	var force func(n *lattice.Node) *relation.FreqSet
	force = func(n *lattice.Node) *relation.FreqSet {
		if f := freqs[n.ID]; f != nil {
			return f
		}
		if f := rebuilt[n.ID]; f != nil {
			return f
		}
		var f *relation.FreqSet
		if pid, ok := parentOf[n.ID]; ok {
			parent := g.Node(pid)
			f = in.RollupTo(force(parent), n.Dims, parent.Levels, n.Levels)
		} else {
			f = src.build(n)
		}
		if _, tracked := freqs[n.ID]; tracked {
			freqs[n.ID] = f
		} else {
			if rebuilt == nil {
				rebuilt = make(map[int]*relation.FreqSet)
			}
			rebuilt[n.ID] = f
		}
		in.grantFreq(f)
		return f
	}

	pq := &nodeQueue{}
	for _, r := range roots {
		heap.Push(pq, r)
	}
	lastHeight := -1
	for pq.Len() > 0 {
		if in.Err() != nil {
			// Cancelled: bail out promptly with whatever survived so far.
			// The driver re-checks the context and discards the partial
			// result, so correctness never depends on this map.
			return surv, false, nil
		}
		if in.Budget.Exhausted() {
			// Hard stop: everything marked k-anonymous so far is proven by
			// the generalization property even if never popped.
			if proven != nil {
				for id := range marked {
					proven[id] = true
				}
			}
			return surv, false, nil
		}
		node := heap.Pop(pq).(*lattice.Node)
		if processed[node.ID] {
			continue
		}
		if levelSaves {
			if h := node.Height(); h > lastHeight {
				if lastHeight >= 0 {
					if err := rp.save("level"); err != nil {
						return nil, false, err
					}
				}
				lastHeight = h
			}
		}
		processed[node.ID] = true
		in.Progress.AddVisited(1)
		// Once this node is processed, its failed specializations have one
		// fewer unprocessed generalization; release frequency sets nothing
		// can need anymore. Runs after the node consumed its own parent's
		// set, hence the closure called on every exit path below.
		release := func() {
			for _, down := range g.Down(node.ID) {
				if _, failed := freqs[down]; failed {
					pendingUps[down]--
					if pendingUps[down] == 0 {
						in.releaseFreq(freqs[down])
						delete(freqs, down)
						delete(pendingUps, down)
					}
				}
			}
		}
		if marked[node.ID] {
			// Generalization property: already known k-anonymous. Fig. 8
			// deliberately does NOT propagate marks from marked nodes (its
			// pseudocode only marks from checked nodes), so a generalization
			// reachable solely through marked nodes may still be checked —
			// a faithful, sound inefficiency; the bottom-up baseline differs
			// here because it visits every lattice node anyway.
			stats.NodesMarked++
			if proven != nil {
				proven[node.ID] = true
			}
			release()
			continue
		}
		// A known verdict (replayed from a snapshot, or an exact delta
		// screen) skips materializing the frequency set but spends the very
		// counters the real check would have spent at this node, so Stats
		// stay identical.
		pass, known := rp.verdict(node)
		if !known && in.Delta != nil {
			if pass, known = in.Delta.st.screen(in, node); known {
				rp.record(node, pass)
			}
		}
		var f *relation.FreqSet
		pid, rolled := parentOf[node.ID]
		switch {
		case known && rolled:
			stats.Rollups++
		case known:
			src.count(node)
		case rolled:
			parent := g.Node(pid)
			f = in.RollupTo(force(parent), node.Dims, parent.Levels, node.Levels)
			stats.Rollups++
		default:
			src.count(node)
			f = src.build(node)
		}
		stats.NodesChecked++
		if !known {
			pass = in.CheckFreq(f)
			if in.Delta != nil {
				in.Delta.st.noteRevalidated(node)
			}
			in.Capture.Observe(in, node, f)
			rp.record(node, pass)
		}
		if pass {
			// Mark all direct generalizations: they are k-anonymous by the
			// generalization property and need not be checked.
			for _, up := range g.Up(node.ID) {
				marked[up] = true
			}
			if proven != nil {
				proven[node.ID] = true
			}
		} else {
			surv[node.ID] = false
			if ups := g.Up(node.ID); len(ups) > 0 {
				freqs[node.ID] = f
				in.grantFreq(f)
				pendingUps[node.ID] = len(ups)
				for _, up := range ups {
					if _, has := parentOf[up]; !has {
						parentOf[up] = node.ID
					}
					if !processed[up] {
						heap.Push(pq, g.Node(up))
					}
				}
			}
		}
		release()
	}
	return surv, true, nil
}

// variantRootSource returns the per-variant rootSourceMaker. The same maker
// serves the sequential search (handed the whole graph's roots) and the
// per-family parallel search.
func variantRootSource(in *Input, v Variant, cube *CubeIndex) rootSourceMaker {
	switch v {
	case Basic:
		return func(_ []*lattice.Node, stats *Stats) rootSource {
			return rootSource{
				count: func(*lattice.Node) { stats.TableScans++ },
				build: func(n *lattice.Node) *relation.FreqSet { return in.ScanFreq(n.Dims, n.Levels) },
			}
		}
	case Cube:
		return func(_ []*lattice.Node, stats *Stats) rootSource {
			return rootSource{
				count: func(n *lattice.Node) {
					if !atBase(n.Levels) {
						stats.Rollups++
					}
				},
				build: func(n *lattice.Node) *relation.FreqSet {
					return in.RollupTo(cube.Get(n.Dims), n.Dims, make([]int, len(n.Dims)), n.Levels)
				},
			}
		}
	case SuperRoots:
		// One scan per family at the meet of its roots, every root's set by
		// rollup from it (§3.3.1). The counters are spent when the family is
		// entered; the scan and its rollups wait for the first root whose
		// set is needed, so a family answered wholly from known verdicts
		// costs nothing.
		return func(roots []*lattice.Node, stats *Stats) rootSource {
			fams := groupRootsByFamily(roots)
			meets := make([][]int, len(fams))
			famOf := make(map[int]int, len(roots))
			for i, fam := range fams {
				_, meets[i] = lattice.Meet(fam)
				stats.TableScans++
				for _, r := range fam {
					famOf[r.ID] = i
					if !sameLevels(meets[i], r.Levels) {
						stats.Rollups++
					}
				}
			}
			rootSets := make(map[int]*relation.FreqSet, len(roots))
			return rootSource{
				count: func(*lattice.Node) {},
				build: func(n *lattice.Node) *relation.FreqSet {
					if f, ok := rootSets[n.ID]; ok {
						return f
					}
					i := famOf[n.ID]
					base := in.ScanFreq(n.Dims, meets[i])
					for _, r := range fams[i] {
						rootSets[r.ID] = in.RollupTo(base, r.Dims, meets[i], r.Levels)
					}
					return rootSets[n.ID]
				},
			}
		}
	}
	panic("core: unknown variant")
}

// atBase reports whether every level is 0: the zero generalization.
func atBase(levels []int) bool {
	for _, l := range levels {
		if l != 0 {
			return false
		}
	}
	return true
}

func sameLevels(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
