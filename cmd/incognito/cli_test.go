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

// TestCLIDemoMatchesInputPath: the demo builds its Config from the same
// flags as an -input run, so the paper's Patients table gives the same
// solutions and the same released view either way, with suppression and
// a release criterion set.
func TestCLIDemoMatchesInputPath(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "patients.csv")
	sexTaxonomy := filepath.Join(dir, "sex.json")
	files := map[string]string{
		input: "Birthdate,Sex,Zipcode,Disease\n" +
			"1/21/76,Male,53715,Flu\n4/13/86,Female,53715,Hepatitis\n" +
			"2/28/76,Male,53703,Brochitis\n1/21/76,Male,53703,Broken Arm\n" +
			"4/13/86,Female,53706,Sprained Ankle\n2/28/76,Female,53706,Hang Nail\n",
		sexTaxonomy: `[{"Male":"Person","Female":"Person"}]`,
	}
	for path, body := range files {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	qi := "Birthdate=suppress;Sex=taxonomy:" + sexTaxonomy + ";Zipcode=round:2"
	const solutions = "8 k-anonymous full-domain generalizations"
	for _, crit := range []string{"height", "discernibility"} {
		run := []string{"-k", "2", "-suppress", "2", "-criterion", crit}
		demo, code := runCLI(t, append([]string{"-demo"}, run...)...)
		if code != 0 {
			t.Fatalf("demo (%s): exit %d, want 0:\n%s", crit, code, demo)
		}
		output := filepath.Join(dir, crit+".csv")
		file, code := runCLI(t, append(run, "-input", input, "-qi", qi, "-list", "-output", output)...)
		if code != 0 {
			t.Fatalf("-input run (%s): exit %d, want 0:\n%s", crit, code, file)
		}
		if !strings.Contains(demo, solutions) || !strings.Contains(file, solutions) {
			t.Fatalf("(%s) want %q from both paths:\ndemo:\n%s\n-input:\n%s", crit, solutions, demo, file)
		}
		released, err := os.ReadFile(output)
		if err != nil {
			t.Fatal(err)
		}
		i := strings.Index(demo, "releases:\n")
		if i < 0 || demo[i+len("releases:\n"):] != string(released) {
			t.Errorf("(%s) demo released view differs from the -input run's:\ndemo:\n%s\n-input:\n%s", crit, demo, released)
		}
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
		{"-demo", "-kernel", "sparse"}, // retired flag: the flag package's error
		{},                             // no -input/-qi and no -demo
		{"-input", "only-input.csv"},   // missing -qi
		{"-definitely-not-a-flag"},     // flag package's own error path
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
