package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"incognito/internal/trace"
)

// countdownCtx cancels itself after a fixed number of Err calls — a
// deterministic way to interrupt a run mid-phase, unlike timer-based
// cancellation. Only Err is overridden; the run paths poll Err at every
// phase boundary and worker loop, which is exactly what this counts.
type countdownCtx struct {
	context.Context
	mu sync.Mutex
	n  int
}

func newCountdown(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n}
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// statsCounters maps a Stats value onto the trace counter names.
func statsCounters(s Stats) map[string]int64 {
	return map[string]int64{
		CounterNodesChecked: int64(s.NodesChecked),
		CounterNodesMarked:  int64(s.NodesMarked),
		CounterCandidates:   int64(s.Candidates),
		CounterTableScans:   int64(s.TableScans),
		CounterRollups:      int64(s.Rollups),
		CounterCubeFreqSets: int64(s.CubeFreqSets),
	}
}

// TestTracingDoesNotPerturbResults is the tentpole's first contract:
// Solutions and Stats are bit-identical with the tracer enabled or
// disabled, at every parallelism level.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	for di, ref := range determinismInputs(t) {
		for _, v := range []Variant{Basic, SuperRoots, Cube} {
			v := v
			t.Run(fmt.Sprintf("input=%d/%v", di, v), func(t *testing.T) {
				for _, p := range parallelismLevels() {
					in := ref
					in.Parallelism = p
					want, err := Run(in, v)
					if err != nil {
						t.Fatal(err)
					}
					in.Trace = trace.New()
					got, err := Run(in, v)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want.Solutions, got.Solutions) {
						t.Fatalf("parallelism %d: solutions differ with tracing on", p)
					}
					if want.Stats != got.Stats {
						t.Fatalf("parallelism %d: stats differ with tracing on:\n  off: %+v\n  on:  %+v",
							p, want.Stats, got.Stats)
					}
				}
			})
		}
	}
}

// TestTraceCountersSumToStats is the tentpole's accounting contract: every
// unit of work is recorded on exactly one span, so summing any counter over
// the exported span tree reproduces the matching core.Stats total.
func TestTraceCountersSumToStats(t *testing.T) {
	for di, ref := range determinismInputs(t) {
		for _, p := range parallelismLevels() {
			for _, v := range []Variant{Basic, SuperRoots, Cube} {
				in := ref
				in.Parallelism = p
				in.Trace = trace.New()
				res, err := Run(in, v)
				if err != nil {
					t.Fatal(err)
				}
				doc := in.Trace.Export()
				for name, want := range statsCounters(res.Stats) {
					if got := doc.SumCounter(name); got != want {
						t.Errorf("input=%d parallelism=%d %v: trace sum of %q = %d, stats say %d",
							di, p, v, name, got, want)
					}
				}
			}
		}
	}
}

// TestTraceCountersSumToStatsMaterialized covers the budgeted-materialization
// path: the trace must account for both the view build and the search.
func TestTraceCountersSumToStatsMaterialized(t *testing.T) {
	for _, budget := range []int64{0, 200, 1 << 20} {
		in := determinismInputs(t)[1]
		in.Trace = trace.New()
		mat := MaterializeBudget(&in, budget)
		res, err := RunMaterialized(in, mat)
		if err != nil {
			t.Fatal(err)
		}
		total := mat.BuildStats
		total.Add(res.Stats)
		doc := in.Trace.Export()
		for name, want := range statsCounters(total) {
			if got := doc.SumCounter(name); got != want {
				t.Errorf("budget %d: trace sum of %q = %d, stats say %d", budget, name, got, want)
			}
		}
	}
}

// TestTraceCoversEveryIteration asserts the span tree's shape: one search
// span per run with an iteration child per subset size, each carrying the
// subset_size attribute.
func TestTraceCoversEveryIteration(t *testing.T) {
	in := determinismInputs(t)[1]
	in.Trace = trace.New()
	if _, err := Run(in, Basic); err != nil {
		t.Fatal(err)
	}
	doc := in.Trace.Export()
	iters := doc.Find("iteration")
	if len(iters) != len(in.QI) {
		t.Fatalf("trace has %d iteration spans, want %d (one per subset size)", len(iters), len(in.QI))
	}
	for i, it := range iters {
		if got := it.Attrs["subset_size"]; fmt.Sprint(got) != fmt.Sprint(i+1) {
			t.Errorf("iteration %d has subset_size=%v, want %d", i, got, i+1)
		}
	}
}

// TestFamilySpansNameTheirAttributes: on the parallel path each family
// span's dims attribute names the family's attribute subset — its QI
// columns in QI order, comma-joined — and an iteration's family spans name
// exactly that iteration's subsets: on this input, every subset of its
// size.
func TestFamilySpansNameTheirAttributes(t *testing.T) {
	in := determinismInputs(t)[1]
	in.Parallelism = 2
	in.Trace = trace.New()
	if _, err := Run(in, Basic); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, q := range in.QI {
		names = append(names, in.Table.Columns()[q.Col])
	}
	// subsets lists every size-i subset of names, comma-joined in QI order.
	var subsets func(from, i int) []string
	subsets = func(from, i int) []string {
		if i == 0 {
			return []string{""}
		}
		var out []string
		for j := from; j+i <= len(names); j++ {
			for _, rest := range subsets(j+1, i-1) {
				out = append(out, strings.TrimSuffix(names[j]+","+rest, ","))
			}
		}
		return out
	}
	families := 0
	for _, it := range in.Trace.Export().Find("iteration") {
		size, _ := it.Attrs["subset_size"].(int)
		var got []string
		for _, c := range it.Children {
			if c.Name != "family" {
				continue
			}
			dims, _ := c.Attrs["dims"].(string)
			if !utf8.ValidString(dims) {
				t.Errorf("iteration %d: family dims %q are not UTF-8", size, dims)
			}
			got = append(got, dims)
		}
		families += len(got)
		if len(got) == 0 {
			continue // one family: the run took the component path
		}
		sort.Strings(got)
		want := subsets(0, size)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("iteration %d: family spans name %q, want %q", size, got, want)
		}
	}
	if families == 0 {
		t.Fatal("no family spans recorded at parallelism 2")
	}
}

// TestRunCancellation sweeps the cancellation countdown so the context
// expires inside every phase: candidate generation, the BFS, the cube
// waves. Each run must fail with an error wrapping context.Canceled and
// never panic or return a partial result.
func TestRunCancellation(t *testing.T) {
	base := determinismInputs(t)[1]
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		for _, p := range []int{1, 2} {
			for n := 0; n < 40; n += 3 {
				in := base
				in.Parallelism = p
				in.Ctx = newCountdown(n)
				res, err := Run(in, v)
				if err == nil {
					// The countdown outlived the run — a complete result is
					// the only acceptable non-error outcome.
					if res == nil || len(res.Solutions) == 0 {
						t.Fatalf("%v parallelism=%d n=%d: nil error but incomplete result", v, p, n)
					}
					continue
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v parallelism=%d n=%d: error %v does not wrap context.Canceled", v, p, n, err)
				}
				if res != nil {
					t.Fatalf("%v parallelism=%d n=%d: cancelled run returned a partial result", v, p, n)
				}
			}
		}
	}
}

// TestRunCancelledBeforeStart: an already-cancelled context fails fast.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range []Variant{Basic, SuperRoots, Cube} {
		in := patientsInput(2, 0)
		in.Ctx = ctx
		if _, err := Run(in, v); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: error %v does not wrap context.Canceled", v, err)
		}
	}
	in := patientsInput(2, 0)
	in.Ctx = ctx
	mat := MaterializeBudget(&in, 1<<20)
	if _, err := RunMaterialized(in, mat); !errors.Is(err, context.Canceled) {
		t.Fatalf("materialized: error does not wrap context.Canceled")
	}
}
