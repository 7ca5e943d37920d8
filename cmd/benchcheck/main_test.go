package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"incognito/internal/bench"
)

func goldenReport() *bench.ParallelReport {
	return &bench.ParallelReport{
		GOMAXPROCS:  4,
		Parallelism: 2,
		Cells: []bench.ParallelCell{
			{
				Dataset: "Adults", Rows: 800, QISize: 9, K: 2, Algo: "Basic Incognito",
				SerialMS: 12.5, ParallelMS: 7.1, Speedup: 1.76,
				Solutions: 116, MinHeight: 7,
				NodesChecked: 1500, NodesMarked: 300, Candidates: 2000,
				TableScans: 120, Rollups: 1380, Identical: true,
			},
		},
	}
}

func TestCompareIgnoresTimings(t *testing.T) {
	got := goldenReport()
	got.Cells[0].SerialMS = 999
	got.Cells[0].ParallelMS = 0.001
	got.Cells[0].Speedup = 42
	got.GOMAXPROCS = 1
	if diffs := compare(goldenReport(), got); len(diffs) != 0 {
		t.Fatalf("timing-only changes flagged: %v", diffs)
	}
}

func TestCompareFlagsCounterDrift(t *testing.T) {
	got := goldenReport()
	got.Cells[0].TableScans++
	got.Cells[0].Solutions--
	diffs := compare(goldenReport(), got)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %v", len(diffs), diffs)
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"table_scans", "solutions"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}
}

func TestCompareFlagsCellCountMismatch(t *testing.T) {
	got := goldenReport()
	got.Cells = append(got.Cells, got.Cells[0])
	diffs := compare(goldenReport(), got)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "cell count") {
		t.Fatalf("cell count mismatch not flagged: %v", diffs)
	}
}

func TestCompareFlagsIdenticalRegression(t *testing.T) {
	got := goldenReport()
	got.Cells[0].Identical = false
	diffs := compare(goldenReport(), got)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "identical") {
		t.Fatalf("identical=false not flagged: %v", diffs)
	}
}

func TestParseSpeedupFloors(t *testing.T) {
	floors, err := parseSpeedupFloors("basic=1.5, superroots=1.5,cube=1.0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		bench.BasicIncognito.String():      1.5,
		bench.SuperRootsIncognito.String(): 1.5,
		bench.CubeIncognito.String():       1.0,
	}
	if len(floors) != len(want) {
		t.Fatalf("got %d floors, want %d: %v", len(floors), len(want), floors)
	}
	for k, v := range want {
		if floors[k] != v {
			t.Errorf("floor[%s] = %v, want %v", k, floors[k], v)
		}
	}
	for _, bad := range []string{"", "basic", "quantum=2", "basic=0", "basic=-1", "basic=fast"} {
		if _, err := parseSpeedupFloors(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestGateSpeedups(t *testing.T) {
	floors := map[string]float64{
		bench.BasicIncognito.String(): 1.5,
		bench.CubeIncognito.String():  1.0,
	}
	report := &bench.ParallelReport{Cells: []bench.ParallelCell{
		{Algo: bench.BasicIncognito.String(), Speedup: 2.1, Identical: true},
		{Algo: bench.CubeIncognito.String(), Speedup: 1.2, Identical: true},
		// No floor declared for Super-roots: never gated, even at 0.1x.
		{Algo: bench.SuperRootsIncognito.String(), Speedup: 0.1, Identical: true},
	}}
	if diffs := gateSpeedups(report, floors); len(diffs) != 0 {
		t.Fatalf("clean report gated: %v", diffs)
	}

	report.Cells[0].Speedup = 1.4 // below its 1.5x floor
	report.Cells[1].Identical = false
	diffs := gateSpeedups(report, floors)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %v", len(diffs), diffs)
	}
	if !strings.Contains(diffs[0], "below the 1.50x floor") || !strings.Contains(diffs[1], "not identical") {
		t.Fatalf("unexpected diff messages: %v", diffs)
	}

	if diffs := gateSpeedups(&bench.ParallelReport{}, floors); len(diffs) != 1 ||
		!strings.Contains(diffs[0], "no report cell") {
		t.Fatalf("empty report not flagged: %v", diffs)
	}
}

func goldenKernelReport() *bench.KernelReport {
	return &bench.KernelReport{
		GOMAXPROCS:    1,
		DenseMaxCells: 1 << 22,
		Cells: []bench.KernelCell{
			{
				Dataset: "Adults", Rows: 800, QISize: 9, K: 2, Algo: "Basic Incognito",
				SparseMS: 140.0, DenseMS: 60.0, Speedup: 2.3,
				Solutions: 116, MinHeight: 7,
				NodesChecked: 1500, NodesMarked: 300, Candidates: 2000,
				TableScans: 120, Rollups: 1380, Identical: true,
			},
		},
		Micro: []bench.KernelMicro{
			{
				Op: "scan", Dataset: "Adults", Rows: 800, QISize: 9,
				Levels: []int{4, 0, 1, 1, 1, 1, 1, 1, 0}, Cells: 2880,
				DenseEligible: true, Groups: 311, Identical: true,
				SparseMS: 0.1, DenseMS: 0.02, Speedup: 5,
			},
		},
	}
}

func TestCompareKernelIgnoresTimings(t *testing.T) {
	got := goldenKernelReport()
	got.Cells[0].SparseMS = 999
	got.Cells[0].DenseMS = 0.001
	got.Cells[0].Speedup = 42
	got.Micro[0].SparseMS = 7
	got.Micro[0].DenseMS = 7
	got.Micro[0].Speedup = 1
	got.GOMAXPROCS = 8
	if diffs := compareKernel(goldenKernelReport(), got); len(diffs) != 0 {
		t.Fatalf("timing-only changes flagged: %v", diffs)
	}
}

func TestCompareKernelFlagsDrift(t *testing.T) {
	got := goldenKernelReport()
	got.Cells[0].Rollups++
	got.Cells[0].Identical = false
	got.Micro[0].Groups--
	got.Micro[0].DenseEligible = false
	got.Micro[0].Levels = []int{4, 0, 1, 1, 1, 1, 1, 1, 1}
	diffs := compareKernel(goldenKernelReport(), got)
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"rollups", "identical", "groups", "dense_eligible", "levels"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}
	if len(diffs) != 5 {
		t.Fatalf("got %d diffs, want 5: %v", len(diffs), diffs)
	}
}

func TestCompareKernelPinsAllocsAtZero(t *testing.T) {
	// A non-zero allocs/op is flagged even when the golden file carries the
	// same non-zero value — the pin is absolute, not drift-relative.
	want := goldenKernelReport()
	want.Micro[0].DenseAddAllocsPerOp = 2
	got := goldenKernelReport()
	got.Micro[0].DenseAddAllocsPerOp = 2
	diffs := compareKernel(want, got)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "dense_add_allocs_per_op") {
		t.Fatalf("non-zero allocs/op not flagged: %v", diffs)
	}
}

func TestCompareKernelFlagsRowCountMismatch(t *testing.T) {
	got := goldenKernelReport()
	got.Micro = append(got.Micro, got.Micro[0])
	diffs := compareKernel(goldenKernelReport(), got)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "micro row count") {
		t.Fatalf("micro row count mismatch not flagged: %v", diffs)
	}
}

// TestLoaders exercises all three report loaders against real files: a
// valid report, a missing file, malformed JSON, and an empty cell list.
func goldenIncrementalReport() *bench.IncrementalReport {
	return &bench.IncrementalReport{
		GOMAXPROCS: 1,
		DeltaEvery: 200,
		Cells: []bench.IncrementalCell{
			{
				Dataset: "Adults", Rows: 800, QISize: 9, K: 2, Kernel: "auto", Parallelism: 1,
				AddedRows: 4, RemovedRows: 4,
				ColdMS: 80.0, DeltaMS: 40.0, Speedup: 2.0,
				Solutions: 116, MinHeight: 7,
				NodesChecked: 1500, NodesMarked: 300, Candidates: 2000,
				TableScans: 120, Rollups: 1380,
				ColdRowsScanned: 96000, RowsRescanned: 8,
				NodesScreened: 1500, NodesRevalidated: 0,
				RowRescanRatio: 0.0001, NodeRevalidationRatio: 0,
				Identical: true,
			},
		},
	}
}

func TestCompareIncrementalIgnoresTimings(t *testing.T) {
	got := goldenIncrementalReport()
	got.Cells[0].ColdMS = 999
	got.Cells[0].DeltaMS = 0.1
	got.Cells[0].Speedup = 42
	if diffs := compareIncremental(goldenIncrementalReport(), got); len(diffs) != 0 {
		t.Fatalf("timing-only changes flagged: %v", diffs)
	}
}

func TestCompareIncrementalFlagsDrift(t *testing.T) {
	got := goldenIncrementalReport()
	got.Cells[0].Identical = false
	got.Cells[0].RowsRescanned += 7
	got.Cells[0].NodesRevalidated++
	diffs := compareIncremental(goldenIncrementalReport(), got)
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"identical", "rows_rescanned", "nodes_revalidated", "not identical to the cold run"} {
		if !strings.Contains(joined, want) {
			t.Errorf("diffs missing %q:\n%s", want, joined)
		}
	}

	got = goldenIncrementalReport()
	got.Cells = got.Cells[:0]
	if diffs := compareIncremental(goldenIncrementalReport(), got); len(diffs) != 1 ||
		!strings.Contains(diffs[0], "cell count") {
		t.Fatalf("cell count mismatch not flagged: %v", diffs)
	}
}

// TestCompareIncrementalGatesRatios pins the absolute savings bounds: a
// cell whose ratios drift above 10% fails even when it matches the golden
// file exactly.
func TestCompareIncrementalGatesRatios(t *testing.T) {
	want := goldenIncrementalReport()
	want.Cells[0].RowRescanRatio = 0.25
	want.Cells[0].NodeRevalidationRatio = 0.30
	got := goldenIncrementalReport()
	got.Cells[0].RowRescanRatio = 0.25
	got.Cells[0].NodeRevalidationRatio = 0.30
	diffs := compareIncremental(want, got)
	joined := strings.Join(diffs, "\n")
	for _, s := range []string{"row_rescan_ratio 0.2500 above the 0.10 bound", "node_revalidation_ratio 0.3000 above the 0.10 bound"} {
		if !strings.Contains(joined, s) {
			t.Errorf("diffs missing %q:\n%s", s, joined)
		}
	}
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %v", len(diffs), diffs)
	}
}

// TestGateIncrementalSpeedups pins the wall-clock gate: every cell must be
// identical and have cold_ms/delta_ms at or above the floor.
func TestGateIncrementalSpeedups(t *testing.T) {
	report := goldenIncrementalReport() // cold 80ms, delta 40ms: 2.0x
	if diffs := gateIncrementalSpeedups(report, 2.0); len(diffs) != 0 {
		t.Fatalf("cell at exactly its floor gated: %v", diffs)
	}
	slow := goldenIncrementalReport()
	slow.Cells = append(slow.Cells, slow.Cells[0])
	slow.Cells[1].DeltaMS = 100 // 0.8x
	slow.Cells[1].Speedup = 9   // the gate reads the times, not this field
	slow.Cells[0].Identical = false
	diffs := gateIncrementalSpeedups(slow, 1.0)
	if len(diffs) != 2 {
		t.Fatalf("got %d diffs, want 2: %v", len(diffs), diffs)
	}
	if !strings.Contains(diffs[0], "not identical") || !strings.Contains(diffs[1], "0.80x below the 1.00x floor") {
		t.Fatalf("unexpected diff messages: %v", diffs)
	}
	unmeasured := goldenIncrementalReport()
	unmeasured.Cells[0].DeltaMS = 0
	if diffs := gateIncrementalSpeedups(unmeasured, 1.0); len(diffs) != 1 || !strings.Contains(diffs[0], "not a measured time") {
		t.Fatalf("zero delta_ms not flagged: %v", diffs)
	}

	if f, err := parseFloor(" 1.25 "); err != nil || f != 1.25 {
		t.Fatalf("parseFloor(1.25) = %v, %v", f, err)
	}
	for _, bad := range []string{"", "0", "-1", "fast", "basic=1.5"} {
		if _, err := parseFloor(bad); err == nil {
			t.Errorf("floor %q accepted", bad)
		}
	}
}

// TestCLIIncrementalSpeedupGate runs the real binary the way the
// multi-core CI job does: no golden file, one floor for every cell.
func TestCLIIncrementalSpeedupGate(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building benchcheck: %v\n%s", err, out)
	}
	report := goldenIncrementalReport()
	report.Cells = append(report.Cells, report.Cells[0])
	report.Cells[1].ColdMS, report.Cells[1].DeltaMS = 30, 20 // 1.5x
	raw, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	got := filepath.Join(dir, "got.json")
	if err := os.WriteFile(got, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	exitCode := func(args ...string) (int, string) {
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
	if code, out := exitCode("-kind", "incremental", "-got", got, "-min-speedup", "1.0"); code != 0 ||
		!strings.Contains(out, "2 cells pass the speedup gate") {
		t.Fatalf("passing report: exit %d\n%s", code, out)
	}
	if code, out := exitCode("-kind", "incremental", "-got", got, "-min-speedup", "1.6"); code != 1 ||
		!strings.Contains(out, "1.50x below the 1.60x floor") {
		t.Fatalf("slow cell: exit %d\n%s", code, out)
	}
	if code, out := exitCode("-kind", "incremental", "-got", got, "-min-speedup", "basic=1.0"); code != 2 {
		t.Fatalf("per-algorithm floor for -kind incremental: exit %d\n%s", code, out)
	}
	if code, out := exitCode("-kind", "kernel", "-got", got, "-min-speedup", "1.0"); code != 2 ||
		!strings.Contains(out, "parallel and incremental only") {
		t.Fatalf("-min-speedup with -kind kernel: exit %d\n%s", code, out)
	}
	if code, out := exitCode("-kind", "incremental", "-got", got); code != 2 {
		t.Fatalf("incremental without -golden or -min-speedup: exit %d\n%s", code, out)
	}
}

func TestLoaders(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parallelJSON, err := json.Marshal(goldenReport())
	if err != nil {
		t.Fatal(err)
	}
	kernelJSON, err := json.Marshal(goldenKernelReport())
	if err != nil {
		t.Fatal(err)
	}
	incrementalJSON, err := json.Marshal(goldenIncrementalReport())
	if err != nil {
		t.Fatal(err)
	}

	if r, err := loadParallel(write("p.json", string(parallelJSON))); err != nil || len(r.Cells) != 1 {
		t.Fatalf("loadParallel: %v", err)
	}
	if r, err := loadKernel(write("k.json", string(kernelJSON))); err != nil || len(r.Cells) != 1 {
		t.Fatalf("loadKernel: %v", err)
	}
	if r, err := loadIncremental(write("i.json", string(incrementalJSON))); err != nil || len(r.Cells) != 1 {
		t.Fatalf("loadIncremental: %v", err)
	}

	missing := filepath.Join(dir, "no-such-file.json")
	garbage := write("garbage.json", "{not json")
	empty := write("empty.json", "{}")
	if _, err := loadParallel(missing); err == nil {
		t.Error("loadParallel accepted a missing file")
	}
	if _, err := loadKernel(garbage); err == nil {
		t.Error("loadKernel accepted malformed JSON")
	}
	if _, err := loadParallel(empty); err == nil {
		t.Error("loadParallel accepted a cell-less report")
	}
	if _, err := loadKernel(empty); err == nil {
		t.Error("loadKernel accepted a cell-less report")
	}
	if _, err := loadIncremental(garbage); err == nil {
		t.Error("loadIncremental accepted malformed JSON")
	}
	if _, err := loadIncremental(empty); err == nil {
		t.Error("loadIncremental accepted a cell-less report")
	}
}

// TestKindUsageListsEveryKind pins the single source of truth for report
// kinds: the -kind flag help and the unknown-kind error must both name
// every valid kind, exactly as a caller would type it.
func TestKindUsageListsEveryKind(t *testing.T) {
	list := kindList()
	for _, k := range validKinds {
		if !strings.Contains(list, k) {
			t.Errorf("kindList() = %q omits %q", list, k)
		}
	}
	if want := "parallel, kernel, or incremental"; list != want {
		t.Errorf("kindList() = %q, want %q", list, want)
	}
}

// TestCLIUnknownKindError runs the real binary: a bogus -kind must exit 2
// and the error must enumerate every kind a caller could have meant, while
// each valid kind must get past the kind check (failing later, on the
// missing report files, with a different message).
func TestCLIUnknownKindError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "benchcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building benchcheck: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-kind", "sideways", "-golden", "g.json", "-got", "x.json").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("bogus -kind: err %v (out %q), want exit 2", err, out)
	}
	if !strings.Contains(string(out), `unknown -kind "sideways"`) {
		t.Errorf("error %q does not name the bad kind", out)
	}
	for _, k := range validKinds {
		if !strings.Contains(string(out), k) {
			t.Errorf("error %q omits valid kind %q", out, k)
		}
	}
	for _, k := range validKinds {
		out, err := exec.Command(bin, "-kind", k, "-golden", "missing.json", "-got", "missing.json").CombinedOutput()
		if err == nil {
			t.Fatalf("-kind %s with missing files succeeded", k)
		}
		if strings.Contains(string(out), "unknown -kind") {
			t.Errorf("-kind %s rejected as unknown:\n%s", k, out)
		}
	}
}
