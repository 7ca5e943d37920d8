package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"incognito/internal/dataset"
	"incognito/internal/relation"
	"incognito/internal/telemetry"
)

// parallelismLevels are the worker counts every determinism test sweeps:
// the sequential reference, two fixed parallel settings (2 and 4 — more
// workers than a small phase has tasks, exercising the clamp), and
// whatever the machine offers.
func parallelismLevels() []int {
	levels := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 {
		levels = append(levels, p)
	}
	return levels
}

// determinismInputs are the (dataset, k) workloads of the determinism
// suite: the paper's running example and a sampled Adults instance big
// enough to shard scans and to populate multi-family candidate graphs.
func determinismInputs(tb testing.TB) []Input {
	tb.Helper()
	var ins []Input
	p := dataset.Patients()
	ins = append(ins, NewInput(p.Table, p.QICols, p.Hierarchies, 2, 0))
	a := dataset.Adults(900, 1)
	cols, hs, err := a.QISubset(5)
	if err != nil {
		tb.Fatal(err)
	}
	ins = append(ins, NewInput(a.Table, cols, hs, 5, 0))
	return ins
}

// TestDeterminismAcrossParallelism is the tentpole's contract: every
// algorithm variant, on both frequency-set kernels, must produce
// byte-identical Solutions AND Stats at parallelism 1 (the sequential
// reference), 2, 4, and GOMAXPROCS. Run under -race this also proves the
// work-stealing family decomposition, the cube's dependency-graph
// scheduling, and the chunked scans are data-race free.
func TestDeterminismAcrossParallelism(t *testing.T) {
	variants := []Variant{Basic, SuperRoots, Cube}
	for di, ref := range determinismInputs(t) {
		for _, v := range variants {
			for _, sparse := range []bool{false, true} {
				v, sparse := v, sparse
				in := ref
				t.Run(fmt.Sprintf("input=%d/%v/sparse=%v", di, v, sparse), func(t *testing.T) {
					in.SparseKernel = sparse
					in.Parallelism = 1
					want, err := Run(in, v)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range parallelismLevels()[1:] {
						in.Parallelism = p
						got, err := Run(in, v)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Solutions, want.Solutions) {
							t.Fatalf("parallelism %d changed solutions:\ngot  %v\nwant %v", p, got.Solutions, want.Solutions)
						}
						if got.Stats != want.Stats {
							t.Fatalf("parallelism %d changed stats:\ngot  %+v\nwant %+v", p, got.Stats, want.Stats)
						}
					}
				})
			}
		}
		// Materialized Incognito: the partial cube build and the search must
		// both be deterministic, including the scan/rollup mix in BuildStats.
		in := ref
		t.Run(fmt.Sprintf("input=%d/Materialized", di), func(t *testing.T) {
			const budget = 1 << 14
			in.Parallelism = 1
			refMat := MaterializeBudget(&in, budget)
			want, err := RunMaterialized(in, refMat)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range parallelismLevels()[1:] {
				in.Parallelism = p
				mat := MaterializeBudget(&in, budget)
				if mat.BuildStats != refMat.BuildStats {
					t.Fatalf("parallelism %d changed materialization stats:\ngot  %+v\nwant %+v", p, mat.BuildStats, refMat.BuildStats)
				}
				if !reflect.DeepEqual(mat.ViewDims(), refMat.ViewDims()) {
					t.Fatalf("parallelism %d changed the selected views:\ngot  %v\nwant %v", p, mat.ViewDims(), refMat.ViewDims())
				}
				got, err := RunMaterialized(in, mat)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Solutions, want.Solutions) {
					t.Fatalf("parallelism %d changed solutions:\ngot  %v\nwant %v", p, got.Solutions, want.Solutions)
				}
				if got.Stats != want.Stats {
					t.Fatalf("parallelism %d changed stats:\ngot  %+v\nwant %+v", p, got.Stats, want.Stats)
				}
			}
		})
	}
}

// TestCubeBuildDeterministicAcrossParallelism checks the wave-parallel
// cube pre-computation in isolation: identical BuildStats and identical
// margins at every worker count.
func TestCubeBuildDeterministicAcrossParallelism(t *testing.T) {
	for _, in := range determinismInputs(t) {
		in.Parallelism = 1
		want := BuildCube(&in)
		fullDims := make([]int, len(in.QI))
		for i := range fullDims {
			fullDims[i] = i
		}
		for _, p := range parallelismLevels()[1:] {
			in.Parallelism = p
			got := BuildCube(&in)
			if got.BuildStats != want.BuildStats {
				t.Fatalf("parallelism %d changed cube build stats: %+v vs %+v", p, got.BuildStats, want.BuildStats)
			}
			if got.NumSets() != want.NumSets() {
				t.Fatalf("parallelism %d changed cube set count: %d vs %d", p, got.NumSets(), want.NumSets())
			}
			// Spot-check that each subset's margin has the same shape.
			for d := 0; d < len(in.QI); d++ {
				g, w := got.Get([]int{d}), want.Get([]int{d})
				if g.Len() != w.Len() || g.Total() != w.Total() {
					t.Fatalf("parallelism %d changed the margin for dim %d", p, d)
				}
			}
			if got.Get(fullDims).Len() != want.Get(fullDims).Len() {
				t.Fatalf("parallelism %d changed the full-QI frequency set", p)
			}
		}
	}
}

// TestWorkersKnob pins the Parallelism → worker-count mapping, including
// the task-count clamp of workersFor.
func TestWorkersKnob(t *testing.T) {
	for _, tc := range []struct{ parallelism, want int }{
		{0, runtime.GOMAXPROCS(0)},
		{1, 1},
		{-3, 1},
		{5, 5},
	} {
		in := Input{Parallelism: tc.parallelism}
		if got := in.Workers(); got != tc.want {
			t.Errorf("Workers() with Parallelism=%d = %d, want %d", tc.parallelism, got, tc.want)
		}
	}
	for _, tc := range []struct{ parallelism, tasks, want int }{
		{8, 3, 3},  // fewer tasks than workers: clamp
		{8, 0, 1},  // degenerate phase still has a calling goroutine
		{2, 16, 2}, // more tasks than workers: knob wins
		{0, 1, 1},  // GOMAXPROCS-many workers, one task
	} {
		in := Input{Parallelism: tc.parallelism}
		if got := in.workersFor(tc.tasks); got != tc.want {
			t.Errorf("workersFor(%d) with Parallelism=%d = %d, want %d", tc.tasks, tc.parallelism, got, tc.want)
		}
	}
}

// TestRunIndexedSafeCoversAllIndices checks the scheduler-backed phase
// primitive visits every index exactly once at any worker count.
func TestRunIndexedSafeCoversAllIndices(t *testing.T) {
	in := &Input{}
	in.installAbort()
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		const n = 57
		counts := make([]int32, n)
		var mu sync.Mutex
		err := runIndexedSafe(in, workers, n, func(i int) string { return "t" }, func(i int) {
			mu.Lock()
			counts[i]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestClampedDispatchStaysInline pins the satellite fix: dispatching a
// single task at a many-worker setting must not spawn idle goroutines —
// it must take the same inline path (and therefore the same allocation
// profile) as a one-worker dispatch. A goroutine pool would show up as
// extra allocations per run.
func TestClampedDispatchStaysInline(t *testing.T) {
	in := &Input{Parallelism: 8}
	in.installAbort()
	site := func(i int) string { return "t" }
	fn := func(i int) {}
	measure := func(workers int) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := runIndexedSafe(in, workers, 1, site, fn); err != nil {
				t.Fatal(err)
			}
		})
	}
	inline, clamped := measure(1), measure(in.workersFor(1))
	if clamped != inline {
		t.Fatalf("clamped single-task dispatch allocates %.1f/run, inline path allocates %.1f/run — idle workers were spawned", clamped, inline)
	}
	before := runtime.NumGoroutine()
	if err := runIndexedSafe(in, in.workersFor(1), 1, site, fn); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("single-task dispatch left %d goroutines (had %d)", after, before)
	}
}

// TestNoGoroutineLeakAfterCancellation cancels runs at many points —
// including mid-phase, while workers are stealing — and checks every
// scheduler goroutine has exited afterwards. The scheduler only returns
// from a phase when all its workers have, so cancellation (which drains
// tasks through Err checks) must leave no goroutine behind.
func TestNoGoroutineLeakAfterCancellation(t *testing.T) {
	in := determinismInputs(t)[1]
	in.Parallelism = 4
	before := runtime.NumGoroutine()
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		for n := 0; n < 60; n += 5 {
			cin := in
			cin.Ctx = newCountdown(n)
			if _, err := Run(cin, v); err == nil {
				break // countdown outlived the run: later counts only get longer
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before cancellation runs, %d after — leak", before, after)
	}
}

// TestStealRebalancesFamilies drives a multi-family graph through the
// scheduler with telemetry on and checks the scheduler metrics see the
// phases: tasks executed, and (at worker counts below the family count)
// a non-zero chance of steals having occurred is not asserted — stealing
// is schedule-dependent — but the dispatch accounting must balance.
func TestStealRebalancesFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	in := determinismInputs(t)[1]
	in.Parallelism = 3
	in.Metrics = reg.NewRunMetrics()
	if _, err := Run(in, Basic); err != nil {
		t.Fatal(err)
	}
	m := in.Metrics.Sched()
	if m.Tasks() == 0 {
		t.Fatal("scheduler metrics recorded no tasks for a parallel Basic run")
	}
	if m.ParallelPhases() == 0 {
		t.Fatal("no parallel phase recorded at parallelism 3 on a 900-row input")
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("worker utilization %v outside (0, 1]", u)
	}
}

// BenchmarkDispatchFloor measures the trade parallelFloorRows encodes:
// the per-task work of a base-table scan at each table size, run as eight
// tasks either inline on the calling goroutine or dispatched to four
// scheduler workers. The inline/dispatch gap is the scheduling overhead;
// the floor sits where task cost dwarfs it. (On a single-core machine
// dispatch can only lose — the floor is calibrated from the per-task cost
// column, which is machine-portable, not from the speedup.)
func BenchmarkDispatchFloor(b *testing.B) {
	for _, rows := range []int{64, 512, 4096} {
		a := dataset.Adults(rows, 1)
		cols, hs, err := a.QISubset(3)
		if err != nil {
			b.Fatal(err)
		}
		in := NewInput(a.Table, cols, hs, 2, 0)
		in.installAbort()
		dims, levels := []int{0, 1, 2}, []int{1, 1, 1}
		const tasks = 8
		for _, mode := range []struct {
			name    string
			workers int
		}{{"inline", 1}, {"dispatch", 4}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, mode.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					err := runIndexedSafe(&in, mode.workers, tasks, func(int) string { return "t" }, func(int) {
						relation.GroupCountRange(in.Table, in.cols(dims), in.recodeTables(dims, levels), in.cardAt(dims, levels), 0, rows)
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDispatchFloorInline pins the task-size floor: a Patients-sized
// input (6 rows) must never dispatch worker goroutines however high the
// parallelism knob, and the results must match the sequential reference.
func TestDispatchFloorInline(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := dataset.Patients()
	in := NewInput(p.Table, p.QICols, p.Hierarchies, 2, 0)
	in.Parallelism = 1
	want, err := Run(in, Cube)
	if err != nil {
		t.Fatal(err)
	}
	in.Parallelism = 16
	in.Metrics = reg.NewRunMetrics()
	got, err := Run(in, Cube)
	if err != nil {
		t.Fatal(err)
	}
	m := in.Metrics.Sched()
	if m.ParallelPhases() != 0 {
		t.Fatalf("%d parallel phases dispatched for a %d-row table below the %d-row floor",
			m.ParallelPhases(), p.Table.NumRows(), parallelFloorRows)
	}
	if m.InlinePhases() == 0 {
		t.Fatal("no inline phases recorded — floor path not taken")
	}
	if !reflect.DeepEqual(got.Solutions, want.Solutions) || got.Stats != want.Stats {
		t.Fatal("floored dispatch changed results")
	}
}
