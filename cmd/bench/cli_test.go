package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the bench binary built once in TestMain for the CLI tests.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "bench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.WriteString("building bench CLI: " + err.Error() + "\n" + string(out))
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes the built binary and returns (stdout, stderr, exit code).
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), ee.ExitCode()
}

// Flag misuse must exit with status 2 and point at usage — never status 0.
func TestBenchUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-experiment", "fig9", "stray-positional-arg"},
		{"-rows", "0"},
		{"-landsend-rows", "-5"},
		{"-minqi", "0"},
		{"-maxqi", "-1"},
		{"-parallelism", "-1"},
		{"-algos", "quantum"},
		{"-definitely-not-a-flag"},
	}
	for _, args := range cases {
		_, stderr, code := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2\n%s", args, code, stderr)
		}
		if !strings.Contains(strings.ToLower(stderr), "usage") {
			t.Errorf("args %v: error output does not mention usage:\n%s", args, stderr)
		}
	}
}

func TestBenchUnknownExperimentFails(t *testing.T) {
	_, stderr, code := runCLI(t, "-experiment", "fig99")
	if code == 0 {
		t.Fatalf("unknown experiment exited 0:\n%s", stderr)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Fatalf("error output missing explanation:\n%s", stderr)
	}
}

func TestBenchParallelJSONAndTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	stdout, stderr, code := runCLI(t,
		"-experiment", "parallel", "-rows", "200", "-landsend-rows", "300",
		"-seed", "1", "-algos", "basic", "-parallelism", "2",
		"-quiet", "-json", "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}

	var report struct {
		Cells []struct {
			Algo      string `json:"algo"`
			Solutions int    `json:"solutions"`
			Identical bool   `json:"identical"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	if len(report.Cells) == 0 {
		t.Fatal("report has no cells")
	}
	for _, c := range report.Cells {
		if !c.Identical {
			t.Errorf("cell %s: parallel run not identical to serial", c.Algo)
		}
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cells := 0
	for _, sp := range doc.Spans {
		if sp.Name == "cell" {
			cells++
		}
	}
	// Two workloads × one algorithm × (serial + parallel) = 4 cells.
	if cells != 4 {
		t.Fatalf("trace has %d cell spans, want 4", cells)
	}
}

// TestBenchIncrementalExperiment runs the delta-driven re-anonymization
// experiment end to end: every (kernel × parallelism) cell on both
// workloads must be bit-identical to its cold reference while re-scanning
// and revalidating at most 10% of the cold run's work.
func TestBenchIncrementalExperiment(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-experiment", "incremental", "-rows", "400", "-landsend-rows", "600",
		"-seed", "1", "-quiet", "-json")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	var report struct {
		DeltaEvery int `json:"delta_every"`
		Cells      []struct {
			Dataset               string  `json:"dataset"`
			Kernel                string  `json:"kernel"`
			Parallelism           int     `json:"parallelism"`
			AddedRows             int     `json:"added_rows"`
			RowRescanRatio        float64 `json:"row_rescan_ratio"`
			NodeRevalidationRatio float64 `json:"node_revalidation_ratio"`
			Identical             bool    `json:"identical"`
		} `json:"cells"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, stdout)
	}
	// Two workloads × two kernels × two worker counts.
	if len(report.Cells) != 8 || report.DeltaEvery == 0 {
		t.Fatalf("unexpected report shape: delta_every=%d cells=%d\n%s",
			report.DeltaEvery, len(report.Cells), stdout)
	}
	for _, c := range report.Cells {
		key := c.Dataset + "/" + c.Kernel
		if !c.Identical {
			t.Errorf("cell %s p=%d: delta run not identical to cold run", key, c.Parallelism)
		}
		if c.AddedRows == 0 {
			t.Errorf("cell %s p=%d: empty delta", key, c.Parallelism)
		}
		if c.RowRescanRatio > 0.10 || c.NodeRevalidationRatio > 0.10 {
			t.Errorf("cell %s p=%d: savings ratios %.4f/%.4f above the 0.10 bound",
				key, c.Parallelism, c.RowRescanRatio, c.NodeRevalidationRatio)
		}
	}
}

func TestBenchVersion(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-version")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	fields := strings.Fields(stdout)
	if len(fields) < 3 || fields[0] != "bench" {
		t.Fatalf("version banner = %q, want 'bench VERSION ... goX.Y'", stdout)
	}
	if !strings.HasPrefix(fields[len(fields)-1], "go1") {
		t.Fatalf("version banner does not end with the Go toolchain: %q", stdout)
	}
}

func TestBenchBadLogFormatExitsTwo(t *testing.T) {
	_, stderr, code := runCLI(t, "-experiment", "fig9", "-log-format", "xml")
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, stderr)
	}
	if !strings.Contains(strings.ToLower(stderr), "usage") {
		t.Fatalf("error output does not mention usage:\n%s", stderr)
	}
}

// TestBenchTelemetryOutputs runs a small sweep with the full telemetry
// surface on: Prometheus snapshot, Chrome trace, and JSON progress events.
func TestBenchTelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "metrics.prom")
	chromePath := filepath.Join(dir, "trace-chrome.json")
	_, stderr, code := runCLI(t,
		"-experiment", "parallel", "-rows", "200", "-landsend-rows", "300",
		"-seed", "1", "-algos", "basic", "-parallelism", "2", "-quiet", "-json",
		"-metrics-out", promPath, "-trace-chrome", chromePath,
		"-v", "-log-format", "json")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE incognito_phase_seconds histogram",
		"incognito_freqset_groups",
		"incognito_progress_nodes_visited",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, prom)
		}
	}

	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	if !strings.Contains(stderr, `"msg":"done"`) {
		t.Fatalf("verbose JSON run emitted no done event:\n%s", stderr)
	}
}
