package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"incognito/internal/dataset"
)

func small() *dataset.Dataset { return dataset.Adults(400, 1) }

// checkRenders smoke-tests a comparison report's two output formats: the
// JSON decodes strictly back into the same report, every cell is
// identical, and the table carries one line per cell plus each of wants.
func checkRenders(t *testing.T, r *Report, wants ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var decoded Report
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(decoded.Cells) == 0 || !reflect.DeepEqual(decoded.Cells[0].Counters, r.Cells[0].Counters) {
		t.Fatalf("decoded report lost its cells: %+v", decoded)
	}
	for _, c := range r.Cells {
		if !c.Identical {
			t.Errorf("cell %s: not identical", c.Key())
		}
	}

	buf.Reset()
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if lines := strings.Count(out, "\n"); lines != 1+len(r.Cells) {
		t.Errorf("table has %d lines, want a header and %d cells:\n%s", lines, len(r.Cells), out)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	d := small()
	var want [][]int
	var wantMin int
	for i, a := range AllAlgos {
		m, err := Run(context.Background(), Obs{}, d, 3, 2, a, 1)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if m.Elapsed <= 0 {
			t.Fatalf("%v: non-positive elapsed time", a)
		}
		if a == BinarySearch {
			// Binary search returns one solution; its height must match.
			if !isMinimal(Measurement{Solutions: want, MinHeight: wantMin}, m) {
				t.Fatalf("binary search found %v at height %d, others %d", m.Solutions, m.MinHeight, wantMin)
			}
			continue
		}
		if i == 0 {
			want, wantMin = m.Solutions, m.MinHeight
			continue
		}
		if !reflect.DeepEqual(m.Solutions, want) || m.MinHeight != wantMin {
			t.Fatalf("%v disagrees: %d solutions (want %d), min height %d (want %d)",
				a, len(m.Solutions), len(want), m.MinHeight, wantMin)
		}
	}
}

func TestRunCubeSeparatesPhases(t *testing.T) {
	d := small()
	m, err := Run(context.Background(), Obs{}, d, 4, 2, CubeIncognito, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildTime <= 0 || m.AnonTime <= 0 {
		t.Fatalf("cube phases not measured: build %v, anon %v", m.BuildTime, m.AnonTime)
	}
	if m.BuildTime+m.AnonTime > m.Elapsed+m.Elapsed/2 {
		t.Fatalf("phase times inconsistent with total: %v + %v vs %v", m.BuildTime, m.AnonTime, m.Elapsed)
	}
}

func TestRunErrors(t *testing.T) {
	d := small()
	if _, err := Run(context.Background(), Obs{}, d, 0, 2, BasicIncognito, 1); err == nil {
		t.Fatal("QI size 0 accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 99, 2, BasicIncognito, 1); err == nil {
		t.Fatal("oversized QI accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 3, 0, BasicIncognito, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 3, 2, Algo(42), 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgo(t *testing.T) {
	for _, name := range []string{"bottomup", "bottomup-rollup", "binary", "basic", "cube", "superroots"} {
		if _, err := ParseAlgo(name); err != nil {
			t.Fatalf("ParseAlgo(%q): %v", name, err)
		}
	}
	if _, err := ParseAlgo("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// paperCells runs the paper experiment on a small Adults sample, one cell
// per (QI size, k, algorithm), and requires every cell to be identical.
func paperCells(t *testing.T, qis []int, ks []int64, algos []Algo) []Cell {
	t.Helper()
	d := small()
	var ws []Workload
	for _, qi := range qis {
		for _, k := range ks {
			for _, a := range algos {
				ws = append(ws, Workload{d, qi, k, a})
			}
		}
	}
	r, err := Compare(context.Background(), Obs{}, "paper", ws, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(ws) || r.Ref != "basic" || r.Subject != "algo" {
		t.Fatalf("got %d cells of %s vs %s, want %d of basic vs algo", len(r.Cells), r.Ref, r.Subject, len(ws))
	}
	for _, c := range r.Cells {
		if !c.Identical {
			t.Errorf("%s: subject's solutions differ from Basic's", c.Key())
		}
	}
	return r.Cells
}

// TestFig10Sweep: Fig. 10's grid is every QI size swept at k 2 and 10 for
// every subject, and its cells carry both algorithms' counters, Basic's
// under the basic_ prefix, and both wall times, in the order their
// workloads were given.
func TestFig10Sweep(t *testing.T) {
	d := small()
	grid := PaperWorkloads(d, 3, 4, nil)
	if want := (2*2 + 3) * 5; len(grid) != want {
		t.Fatalf("grid has %d workloads, want %d", len(grid), want)
	}
	for _, w := range grid[:20] {
		if w.Algo == BasicIncognito || (w.K != 2 && w.K != 10) {
			t.Fatalf("Fig. 10 workload %+v", w)
		}
	}
	var logged []string
	ws := []Workload{{d, 3, 2, CubeIncognito}, {d, 4, 10, SuperRootsIncognito}}
	r, err := Compare(context.Background(), Obs{}, "paper", ws, Options{}, func(f string, a ...interface{}) {
		logged = append(logged, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(ws) {
		t.Fatalf("progress called %d times, want %d", len(logged), len(ws))
	}
	for i, c := range r.Cells {
		if c.QISize != ws[i].QISize || c.K != ws[i].K || c.Algo != ws[i].Algo.String() {
			t.Errorf("cell %d is %s, want workload %+v", i, c.Key(), ws[i])
		}
		if c.RefMS <= 0 || c.SubjectMS <= 0 {
			t.Errorf("%s: times not measured: %+v", c.Key(), c)
		}
		for _, name := range []string{"nodes_checked", "table_scans", "rollups"} {
			if _, ok := c.Counters["basic_"+name]; !ok {
				t.Errorf("%s: no basic_%s counter", c.Key(), name)
			}
		}
		for _, name := range []string{"solutions", "min_height"} {
			if c.Counters[name] != c.Counters["basic_"+name] {
				t.Errorf("%s: %s = %d, Basic's %d", c.Key(), name, c.Counters[name], c.Counters["basic_"+name])
			}
		}
	}
	checkRenders(t, r, "paper experiment: basic vs algo", "algo=Cube Incognito", "identical=true")
}

// TestFig11Staggered: Fig. 11's extra k values run at QI 8 (or the
// largest QI size swept), except Binary Search on Lands End, which runs at
// QI 6 as in the paper. Binary Search returns one solution, and its cell
// is identical when that solution is one of Basic's minimal ones.
func TestFig11Staggered(t *testing.T) {
	fig11 := func(ws []Workload) map[Algo]int {
		qi := map[Algo]int{}
		for _, w := range ws {
			if w.K == 5 {
				qi[w.Algo] = w.QISize
			}
		}
		return qi
	}
	algos := []Algo{BinarySearch, CubeIncognito}
	if got := fig11(PaperWorkloads(dataset.LandsEnd(50, 1), 3, 8, algos)); got[BinarySearch] != 6 || got[CubeIncognito] != 8 {
		t.Errorf("Lands End Fig. 11 QI sizes %v, want Binary Search at 6 and Cube at 8", got)
	}
	if got := fig11(PaperWorkloads(small(), 3, 9, algos)); got[BinarySearch] != 8 || got[CubeIncognito] != 8 {
		t.Errorf("Adults Fig. 11 QI sizes %v, want 8 for both", got)
	}
	if got := fig11(PaperWorkloads(small(), 3, 5, algos)); got[BinarySearch] != 5 {
		t.Errorf("Adults Fig. 11 QI sizes %v at -maxqi 5, want 5", got)
	}
	for _, c := range paperCells(t, []int{4}, []int64{2, 5, 25}, []Algo{BinarySearch}) {
		if c.Counters["solutions"] != 1 || c.Counters["min_height"] != c.Counters["basic_min_height"] {
			t.Errorf("%s: binary search found %d solutions at height %d, Basic's minimal height %d",
				c.Key(), c.Counters["solutions"], c.Counters["min_height"], c.Counters["basic_min_height"])
		}
	}
}

// TestNodesTableShape: one bottom-up cell holds both columns of the §4.2.1
// table, and Incognito's a priori pruning checks no more nodes than
// bottom-up's exhaustive search.
func TestNodesTableShape(t *testing.T) {
	for _, c := range paperCells(t, []int{3, 4}, []int64{2}, []Algo{BottomUpRollup, BottomUpNoRollup}) {
		bu, inc := c.Counters["nodes_checked"], c.Counters["basic_nodes_checked"]
		if inc <= 0 || inc > bu {
			t.Errorf("%s: incognito checked %d nodes, bottom-up %d", c.Key(), inc, bu)
		}
	}
}

// TestFig12Breakdown: a Cube cell splits its wall time into the cube build
// and the anonymization, as Fig. 12 does; other cells carry no split.
func TestFig12Breakdown(t *testing.T) {
	cells := paperCells(t, []int{4}, []int64{2}, []Algo{CubeIncognito, BottomUpRollup})
	cube := cells[0]
	if cube.Info["build_ms"] <= 0 || cube.Info["anon_ms"] <= 0 || cube.Info["build_ms"]+cube.Info["anon_ms"] > 1.5*cube.SubjectMS {
		t.Errorf("cube split %v does not fit its %.3fms", cube.Info, cube.SubjectMS)
	}
	if _, ok := cells[1].Info["build_ms"]; ok {
		t.Errorf("%s: a bottom-up cell reports a cube build", cells[1].Key())
	}
}

// TestBinarySearchIdentity: a Binary Search cell is identical only when
// its one solution is one of Basic's minimal ones, or when neither found
// any.
func TestBinarySearchIdentity(t *testing.T) {
	basic := Measurement{Solutions: [][]int{{0, 1}, {1, 0}, {1, 1}, {2, 0}}, MinHeight: 1}
	for _, tc := range []struct {
		basic Measurement
		got   [][]int
		h     int
		want  bool
	}{
		{basic, [][]int{{1, 0}}, 1, true},
		{basic, [][]int{{1, 1}}, 2, false}, // a solution, not a minimal one
		{basic, [][]int{{0, 2}}, 2, false}, // not a solution
		{basic, [][]int{{0, 0}}, 0, false}, // below Basic's minimal height
		{basic, nil, -1, false},
		{Measurement{MinHeight: -1}, nil, -1, true},
		{Measurement{MinHeight: -1}, [][]int{{1, 1}}, 2, false},
	} {
		if got := isMinimal(tc.basic, Measurement{Solutions: tc.got, MinHeight: tc.h}); got != tc.want {
			t.Errorf("basic %v, binary search %v: identical = %v, want %v", tc.basic.Solutions, tc.got, got, tc.want)
		}
	}
}

func TestDescribe(t *testing.T) {
	var buf bytes.Buffer
	if err := Describe(small(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Adults", "Age", "74", "Taxonomy tree(2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe output missing %q:\n%s", want, out)
		}
	}
}
