package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the incognito binary built once in TestMain for the CLI tests.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "incognito-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "incognito")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.WriteString("building incognito CLI: " + err.Error() + "\n" + string(out))
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI executes the built binary and returns (stdout+stderr, exit code).
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

func TestCLIDemoSucceeds(t *testing.T) {
	out, code := runCLI(t, "-demo", "-k", "2")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "k-anonymous full-domain generalizations") {
		t.Fatalf("demo output missing solutions header:\n%s", out)
	}
}

// TestCLIKernelSparseMatchesAuto pins the kernel guarantee at the CLI
// surface: forcing the sparse reference kernel changes nothing observable.
func TestCLIKernelSparseMatchesAuto(t *testing.T) {
	auto, code := runCLI(t, "-demo", "-k", "2", "-list", "-stats", "-kernel", "auto")
	if code != 0 {
		t.Fatalf("auto kernel: exit %d, want 0:\n%s", code, auto)
	}
	sparse, code := runCLI(t, "-demo", "-k", "2", "-list", "-stats", "-kernel", "sparse")
	if code != 0 {
		t.Fatalf("sparse kernel: exit %d, want 0:\n%s", code, sparse)
	}
	if auto != sparse {
		t.Errorf("kernel outputs differ:\nauto:\n%s\nsparse:\n%s", auto, sparse)
	}
}

// Flag misuse must exit with status 2 and point at usage — never status 0.
func TestCLIUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-demo", "stray-positional-arg"},
		{"-demo", "-k", "0"},
		{"-demo", "-parallelism", "-1"},
		{"-demo", "-suppress", "-1"},
		{"-demo", "-budget", "0"},
		{"-demo", "-kernel", "dense"}, // only auto|sparse name the kernels
		{},                            // no -input/-qi and no -demo
		{"-input", "only-input.csv"},  // missing -qi
		{"-definitely-not-a-flag"},    // flag package's own error path
	}
	for _, args := range cases {
		out, code := runCLI(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(strings.ToLower(out), "usage") {
			t.Errorf("args %v: error output does not mention usage:\n%s", args, out)
		}
	}
}

func TestCLIRuntimeErrorExitsOne(t *testing.T) {
	out, code := runCLI(t, "-input", "/definitely/missing.csv", "-qi", "A=suppress")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "incognito:") {
		t.Fatalf("error output missing command prefix:\n%s", out)
	}
}

func TestCLITraceAndProfiles(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	out, code := runCLI(t, "-demo", "-k", "2",
		"-trace", tracePath, "-cpuprofile", cpuPath, "-memprofile", memPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int              `json:"version"`
		Spans   []map[string]any `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	if doc.Version != 1 || len(doc.Spans) == 0 {
		t.Fatalf("trace document empty: version=%d spans=%d", doc.Version, len(doc.Spans))
	}

	for _, p := range []string{cpuPath, memPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestCLIVersion(t *testing.T) {
	out, code := runCLI(t, "-version")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	fields := strings.Fields(out)
	if len(fields) < 3 || fields[0] != "incognito" {
		t.Fatalf("version banner = %q, want 'incognito VERSION ... goX.Y'", out)
	}
	if !strings.HasPrefix(fields[len(fields)-1], "go1") {
		t.Fatalf("version banner does not end with the Go toolchain: %q", out)
	}
}

func TestCLIBadLogFormatExitsTwo(t *testing.T) {
	out, code := runCLI(t, "-demo", "-log-format", "xml")
	if code != 2 {
		t.Fatalf("exit %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(strings.ToLower(out), "usage") {
		t.Fatalf("error output does not mention usage:\n%s", out)
	}
}

// TestCLITelemetryOutputs runs the demo with the full telemetry surface on:
// a Prometheus snapshot, a Chrome trace, and JSON progress events.
func TestCLITelemetryOutputs(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "metrics.prom")
	chromePath := filepath.Join(dir, "trace-chrome.json")
	out, code := runCLI(t, "-demo", "-k", "2",
		"-metrics-out", promPath, "-trace-chrome", chromePath,
		"-v", "-log-format", "json")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE incognito_phase_seconds histogram",
		"incognito_nodes_checked_total",
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

	// -v -log-format json ends the run with a structured "done" event.
	if !strings.Contains(out, `"msg":"done"`) {
		t.Fatalf("verbose JSON run emitted no done event:\n%s", out)
	}
}

// TestCLIMetricsAddr binds the live metrics endpoint on an ephemeral port
// and checks the discovery banner is printed (the scrape-during-run
// behavior itself is covered in internal/telemetry's server tests).
func TestCLIMetricsAddr(t *testing.T) {
	out, code := runCLI(t, "-demo", "-k", "2", "-metrics-addr", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "incognito: metrics listening on http://127.0.0.1:") {
		t.Fatalf("no listening banner on stderr:\n%s", out)
	}
}
