package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"incognito/internal/bench"
)

// goldens are the committed golden files, one per comparison experiment.
var goldens = []struct{ experiment, path string }{
	{"parallel", "../../results/bench-regression-golden.json"},
	{"kernel", "../../results/kernel-regression-golden.json"},
	{"incremental", "../../results/incremental-regression-golden.json"},
	{"paper", "../../results/paper-regression-golden.json"},
}

// readGolden loads a committed golden file through the command's loader,
// and again as a generic JSON tree that tests can mutate.
func readGolden(t *testing.T, path string) (*bench.Report, map[string]any) {
	t.Helper()
	r, err := load(path, "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatal(err)
	}
	return r, tree
}

// decode turns a (mutated) JSON tree back into a report.
func decode(t *testing.T, tree map[string]any) *bench.Report {
	t.Helper()
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var r bench.Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

func cellsOf(tree map[string]any) []map[string]any {
	var out []map[string]any
	for _, c := range tree["cells"].([]any) {
		out = append(out, c.(map[string]any))
	}
	return out
}

// measured lists the fields of a cell that are measurements, never pinned.
var measured = map[string]bool{"ref_ms": true, "subject_ms": true, "speedup": true, "info": true}

func TestCompareIgnoresTimings(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.experiment, func(t *testing.T) {
			want, tree := readGolden(t, g.path)
			tree["gomaxprocs"] = 64.0
			tree["ref"], tree["subject"] = "before", "after"
			tree["info"] = map[string]any{"anything": 1.0}
			for _, c := range cellsOf(tree) {
				c["ref_ms"], c["subject_ms"], c["speedup"] = 999.0, 0.001, 42.0
				c["info"] = map[string]any{"utilization": 7.0, "row_rescan_ratio": 0.9}
			}
			if diffs, _ := check(want, decode(t, tree), nil); len(diffs) != 0 {
				t.Fatalf("timing-only changes flagged: %v", diffs)
			}
		})
	}
}

// mutations returns one change per value the gate pins in a cell: every
// coordinate, every counter and the identical flag, named by field.
func mutations(cell map[string]any) map[string]func(map[string]any) {
	out := map[string]func(map[string]any){}
	for name, v := range cell {
		switch {
		case measured[name]:
		case name == "counters":
			for counter := range v.(map[string]any) {
				out[counter] = func(c map[string]any) {
					counters := c["counters"].(map[string]any)
					counters[counter] = counters[counter].(float64) + 1
				}
			}
		default:
			out[name] = func(c map[string]any) {
				switch x := v.(type) {
				case bool:
					c[name] = !x
				case string:
					c[name] = x + "x"
				case float64:
					c[name] = x + 1
				case []any:
					y := append([]any(nil), x...)
					y[0] = y[0].(float64) + 1
					c[name] = y
				default:
					panic(fmt.Sprintf("field %s has unexpected type %T", name, v))
				}
			}
		}
	}
	return out
}

// mutatedCell returns a golden cell's JSON tree changed by mutate, as a
// report cell, leaving the tree as it was.
func mutatedCell(t *testing.T, cell map[string]any, mutate func(map[string]any)) bench.Cell {
	t.Helper()
	data, err := json.Marshal(cell)
	if err != nil {
		t.Fatal(err)
	}
	var c map[string]any
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	mutate(c)
	if data, err = json.Marshal(c); err != nil {
		t.Fatal(err)
	}
	var out bench.Cell
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompareFlagsCounterDrift changes each pinned value of each committed
// golden file, one at a time, in a copy: every change must fail with a
// message naming the field and the cell.
func TestCompareFlagsCounterDrift(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.experiment, func(t *testing.T) {
			want, tree := readGolden(t, g.path)
			checked := 0
			for i, cell := range cellsOf(tree) {
				for field, mutate := range mutations(cell) {
					got := *want
					got.Cells = append([]bench.Cell(nil), want.Cells...)
					got.Cells[i] = mutatedCell(t, cell, mutate)
					diffs, _ := check(want, &got, nil)
					name := fmt.Sprintf("cell %d (", i)
					found := false
					for _, d := range diffs {
						found = found || strings.Contains(d, name) && strings.Contains(d, field)
					}
					if !found {
						t.Errorf("changing %s of cell %d: diffs %v name no %q and %q", field, i, diffs, field, name)
					}
					checked++
				}
			}
			if checked < 10*len(want.Cells) {
				t.Fatalf("only %d pinned values mutated across %d cells", checked, len(want.Cells))
			}
		})
	}
}

func TestCompareFlagsCellCountMismatch(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.experiment, func(t *testing.T) {
			want, _ := readGolden(t, g.path)
			for _, n := range []int{len(want.Cells) - 1, len(want.Cells) + 1} {
				got, _ := readGolden(t, g.path)
				got.Cells = append(got.Cells, got.Cells[0])[:n]
				diffs := compare(want, got)
				if len(diffs) != 1 || !strings.Contains(diffs[0], "cell count") {
					t.Errorf("%d cells against %d: %v", n, len(want.Cells), diffs)
				}
			}
		})
	}
}

// TestCompareFlagsIdenticalRegression: a cell whose subject run diverged
// from its reference run drifts from the golden file and breaks the
// absolute rule, in every experiment.
func TestCompareFlagsIdenticalRegression(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.experiment, func(t *testing.T) {
			want, _ := readGolden(t, g.path)
			got, _ := readGolden(t, g.path)
			got.Cells[1].Identical = false
			diffs, _ := check(want, got, nil)
			if len(diffs) != 2 || !strings.Contains(diffs[0], "cell 1 (") || !strings.Contains(diffs[0], "identical = false, want true") ||
				!strings.Contains(diffs[1], fmt.Sprintf("%s run was not identical to the %s run", want.Subject, want.Ref)) {
				t.Fatalf("identical=false not flagged twice: %v", diffs)
			}
		})
	}
}

// TestCompareKernelPinsAllocsAtZero: a non-zero allocs/op is flagged even
// when the golden file carries the same value — the pin is absolute, not
// drift-relative.
func TestCompareKernelPinsAllocsAtZero(t *testing.T) {
	want, _ := readGolden(t, goldens[1].path)
	got, _ := readGolden(t, goldens[1].path)
	scan := -1
	for i, c := range want.Cells {
		if c.Op == "scan" {
			scan = i
			break
		}
	}
	if scan < 0 {
		t.Fatal("kernel golden file has no scan row")
	}
	want.Cells[scan].Counters["dense_add_allocs_per_op"] = 2
	got.Cells[scan].Counters["dense_add_allocs_per_op"] = 2
	diffs, _ := check(want, got, nil)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "dense_add_allocs_per_op = 2, want at most 0") {
		t.Fatalf("non-zero allocs/op not flagged: %v", diffs)
	}
}

// TestCompareIncrementalGatesRatios pins the absolute savings bounds: a
// cell past 10% fails even when it matches the golden file exactly, and a
// bounded counter without its denominator is refused.
func TestCompareIncrementalGatesRatios(t *testing.T) {
	want, _ := readGolden(t, goldens[2].path)
	got, _ := readGolden(t, goldens[2].path)
	for _, r := range []*bench.Report{want, got} {
		n := r.Cells[0].Counters
		n["rows_rescanned"] = n["cold_rows_scanned"]/4 + 1
		n["nodes_revalidated"] = n["nodes_checked"]
		delete(r.Cells[1].Counters, "cold_rows_scanned")
	}
	diffs, _ := check(want, got, nil)
	joined := strings.Join(diffs, "\n")
	for _, s := range []string{"cell 0 (", "rows_rescanned = ", "is above 0.10 of cold_rows_scanned", "nodes_revalidated = ",
		"is above 0.10 of nodes_checked", "cell 1 (", "rows_rescanned has no cold_rows_scanned to bound it"} {
		if !strings.Contains(joined, s) {
			t.Errorf("diffs missing %q:\n%s", s, joined)
		}
	}
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3: %v", len(diffs), diffs)
	}
}

func TestParseSpeedupFloors(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want map[string]float64
	}{
		{"basic=1.5, superroots=1.5,cube=1.0", map[string]float64{
			bench.BasicIncognito.String():      1.5,
			bench.SuperRootsIncognito.String(): 1.5,
			bench.CubeIncognito.String():       1.0,
		}},
		{" 1.25 ", map[string]float64{"": 1.25}},
	} {
		floors, err := parseSpeedupFloors(tc.spec)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if fmt.Sprint(floors) != fmt.Sprint(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.spec, floors, tc.want)
		}
	}
	for _, bad := range []string{"", "0", "-1", "fast", "basic", "quantum=2", "basic=0", "basic=-1", "basic=fast", "1.0,basic=2"} {
		if _, err := parseSpeedupFloors(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestGateSpeedups pins the per-algorithm floors: cells of an algorithm
// without a floor are not gated and not counted, yet every cell must still
// be identical.
func TestGateSpeedups(t *testing.T) {
	floors := map[string]float64{
		bench.BasicIncognito.String(): 1.5,
		bench.CubeIncognito.String():  1.0,
	}
	report := &bench.Report{Ref: "serial", Subject: "parallel", Cells: []bench.Cell{
		{Algo: bench.BasicIncognito.String(), RefMS: 21, SubjectMS: 10, Identical: true},
		{Algo: bench.CubeIncognito.String(), RefMS: 12, SubjectMS: 10, Identical: true},
		// No floor declared for Super-roots: never gated, even at 0.1x.
		{Algo: bench.SuperRootsIncognito.String(), RefMS: 1, SubjectMS: 10, Identical: true},
	}}
	if diffs, gated := check(nil, report, floors); len(diffs) != 0 || gated != 2 {
		t.Fatalf("clean report: gated %d, diffs %v", gated, diffs)
	}

	report.Cells[0].RefMS = 14 // 1.4x, below its 1.5x floor
	report.Cells[2].Identical = false
	diffs, _ := check(nil, report, floors)
	if len(diffs) != 2 || !strings.Contains(diffs[0], "cell 2 (") || !strings.Contains(diffs[0], "parallel run was not identical to the serial run") ||
		!strings.Contains(diffs[1], "cell 0 (") || !strings.Contains(diffs[1], "1.40x below the 1.50x floor") {
		t.Fatalf("unexpected diffs: %v", diffs)
	}

	if diffs, gated := gateSpeedups(&bench.Report{}, floors); len(diffs) != 1 || gated != 0 ||
		!strings.Contains(diffs[0], "no report cell") {
		t.Fatalf("empty report not flagged: %v", diffs)
	}
}

// TestGateIncrementalSpeedups pins the bare floor: every cell must run its
// subject at least floor times as fast as its reference, read from the
// recorded times.
func TestGateIncrementalSpeedups(t *testing.T) {
	report, _ := readGolden(t, goldens[2].path)
	for i := range report.Cells {
		report.Cells[i].RefMS, report.Cells[i].SubjectMS = 80, 40 // 2.0x
	}
	if diffs, gated := check(nil, report, map[string]float64{"": 2.0}); len(diffs) != 0 || gated != len(report.Cells) {
		t.Fatalf("cells at exactly their floor: gated %d, diffs %v", gated, diffs)
	}
	report.Cells[1].SubjectMS = 100 // 0.8x
	report.Cells[1].Speedup = 9     // the gate reads the times, not this field
	report.Cells[2].SubjectMS = 0
	diffs, _ := check(nil, report, map[string]float64{"": 1.0})
	if len(diffs) != 2 || !strings.Contains(diffs[0], "cell 1 (") || !strings.Contains(diffs[0], "0.80x below the 1.00x floor (cold 80.0ms, delta 100.0ms)") ||
		!strings.Contains(diffs[1], "cell 2 (") || !strings.Contains(diffs[1], "not a measured time") {
		t.Fatalf("unexpected diffs: %v", diffs)
	}
}

// buildBenchcheck builds the command into a temporary directory.
func buildBenchcheck(t *testing.T) func(args ...string) (int, string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building benchcheck: %v\n%s", err, out)
	}
	return func(args ...string) (int, string) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			return 0, string(out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running benchcheck %v: %v", args, err)
		}
		return ee.ExitCode(), string(out)
	}
}

// writeReport writes r as a report file in dir.
func writeReport(t *testing.T, dir, name string, r *bench.Report) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLIIncrementalSpeedupGate runs the real binary the way the
// multi-core CI job does: no golden file, one floor for every cell.
func TestCLIIncrementalSpeedupGate(t *testing.T) {
	run := buildBenchcheck(t)
	report, _ := readGolden(t, goldens[2].path)
	report.Cells = report.Cells[:2]
	report.Cells[0].RefMS, report.Cells[0].SubjectMS = 80, 40 // 2.0x
	report.Cells[1].RefMS, report.Cells[1].SubjectMS = 30, 20 // 1.5x
	got := writeReport(t, t.TempDir(), "got.json", report)
	if code, out := run("-got", got, "-min-speedup", "1.0"); code != 0 ||
		!strings.Contains(out, "2 cells pass the speedup gate") {
		t.Fatalf("passing report: exit %d\n%s", code, out)
	}
	if code, out := run("-got", got, "-min-speedup", "1.6"); code != 1 ||
		!strings.Contains(out, "1.50x below the 1.60x floor") {
		t.Fatalf("slow cell: exit %d\n%s", code, out)
	}
	if code, out := run("-got", got, "-min-speedup", "basic=1.0"); code != 1 ||
		!strings.Contains(out, "no report cell matches any -min-speedup floor") {
		t.Fatalf("per-algorithm floor on cells without an algorithm: exit %d\n%s", code, out)
	}
	for _, args := range [][]string{
		{"-got", got},
		{"-got", got, "-min-speedup", "0"},
	} {
		if code, out := run(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// TestCLIUnknownKindError: the report names its experiment, so -kind is
// retired; a caller still passing it, with any kind, gets a usage error
// (exit 2) instead of a check that silently ignores what it asked for.
func TestCLIUnknownKindError(t *testing.T) {
	run := buildBenchcheck(t)
	for _, kind := range []string{"parallel", "kernel", "incremental", "sideways"} {
		code, out := run("-kind", kind, "-golden", goldens[0].path, "-got", goldens[0].path)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: -kind") {
			t.Errorf("-kind %s: exit %d, want 2 with a flag error\n%s", kind, code, out)
		}
	}
}

// TestCLIGateChecksEveryCellIdentical: a per-algorithm gate no longer
// passes a report whose ungated cells diverged, and counts only the cells
// it gated.
func TestCLIGateChecksEveryCellIdentical(t *testing.T) {
	run := buildBenchcheck(t)
	dir := t.TempDir()
	report, _ := readGolden(t, goldens[0].path)
	got := writeReport(t, dir, "clean.json", report)
	if code, out := run("-got", got, "-min-speedup", "basic=0.1"); code != 0 ||
		!strings.Contains(out, "2 cells pass the speedup gate") {
		t.Fatalf("clean report: exit %d\n%s", code, out)
	}
	cube := 0
	for i := range report.Cells {
		if report.Cells[i].Algo == bench.CubeIncognito.String() {
			report.Cells[i].Identical = false
			cube++
		}
	}
	if cube != 2 {
		t.Fatalf("golden file has %d Cube cells, want 2", cube)
	}
	got = writeReport(t, dir, "diverged.json", report)
	code, out := run("-got", got, "-min-speedup", "basic=0.1")
	if code != 1 || strings.Count(out, "parallel run was not identical to the serial run") != 2 ||
		strings.Contains(out, "pass the speedup gate") {
		t.Fatalf("diverged Cube cells: exit %d\n%s", code, out)
	}
}

// TestLoaders pins what a report must be: one JSON document of the
// schema, naming its experiment — the golden file's, when one is given —
// with at least one cell.
func TestLoaders(t *testing.T) {
	dir := t.TempDir()
	golden, tree := readGolden(t, goldens[0].path)
	encode := func(edit func(map[string]any)) string {
		_, tree := readGolden(t, goldens[0].path)
		edit(tree)
		raw, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if len(tree) == 0 || len(golden.Cells) == 0 {
		t.Fatal("golden file is empty")
	}
	for _, tc := range []struct {
		name, content, experiment, err string
	}{
		{"valid", encode(func(map[string]any) {}), "parallel", ""},
		{"valid, any experiment", encode(func(map[string]any) {}), "", ""},
		{"malformed", "{not json", "", "invalid character"},
		{"no experiment", encode(func(r map[string]any) { delete(r, "experiment") }), "", "names no experiment"},
		{"other experiment", encode(func(r map[string]any) { r["experiment"] = "kernel" }), "parallel", "the golden file of the parallel experiment"},
		{"no cells", encode(func(r map[string]any) { r["cells"] = []any{} }), "", "has no cells"},
		{"undeclared report field", encode(func(r map[string]any) { r["parallelism"] = 2.0 }), "", `unknown field "parallelism"`},
		{"undeclared cell field", encode(func(r map[string]any) { cellsOf(r)[0]["serial_ms"] = 1.0 }), "", `unknown field "serial_ms"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := load(path, tc.experiment)
			switch {
			case tc.err == "" && (err != nil || len(r.Cells) != len(golden.Cells)):
				t.Fatalf("refused: %v", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Fatalf("err = %v, want one containing %q", err, tc.err)
			}
		})
	}
	if _, err := load(filepath.Join(dir, "no-such-file.json"), ""); err == nil {
		t.Error("accepted a missing file")
	}
}
