package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLITimeoutExits124: a run that overruns -timeout exits with the
// timeout(1) convention's status 124 AND still flushes its telemetry
// outputs, with the interruption recorded on them.
func TestCLITimeoutExits124(t *testing.T) {
	dir := t.TempDir()
	promPath := filepath.Join(dir, "metrics.prom")
	tracePath := filepath.Join(dir, "trace.json")
	out, code := runCLI(t, "-demo", "-k", "2", "-timeout", "1ns",
		"-metrics-out", promPath, "-trace", tracePath)
	if code != 124 {
		t.Fatalf("exit %d, want 124:\n%s", code, out)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatalf("metrics not flushed on timeout: %v", err)
	}
	if !strings.Contains(string(prom), "incognito_run_cancelled 1") {
		t.Errorf("metrics snapshot does not record the cancellation:\n%s", prom)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace not flushed on timeout: %v", err)
	}
	if !strings.Contains(string(trace), `"cancelled"`) {
		t.Errorf("trace does not carry the cancelled attribute:\n%s", trace)
	}
}

// Resilience flag misuse is a usage error (exit 2), same as every other
// flag problem.
func TestCLIResilienceUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-demo", "-mem-budget", "12.5Mi"},
		{"-demo", "-mem-budget", "64Q"},
		{"-demo", "-timeout", "-5s"},
		{"-demo", "-algorithm", "bottomup", "-checkpoint", "x.ckpt"},
		{"-demo", "-algorithm", "binary", "-resume", "x.ckpt"},
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

// TestCLIMemBudgetHardStopExitsThree: a budget the run cannot fit in stops
// it with the partial-result status 3 and degradation telemetry.
func TestCLIMemBudgetHardStopExitsThree(t *testing.T) {
	promPath := filepath.Join(t.TempDir(), "metrics.prom")
	out, code := runCLI(t, "-demo", "-k", "2", "-mem-budget", "1",
		"-metrics-out", promPath)
	if code != 3 {
		t.Fatalf("exit %d, want 3:\n%s", code, out)
	}
	if !strings.Contains(out, "memory budget exhausted") {
		t.Errorf("error output does not explain the degradation:\n%s", out)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"incognito_mem_budget_bytes 1", "incognito_degradation_events"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, prom)
		}
	}
}

// TestCLIMemBudgetGenerousCompletes: a budget the demo fits in changes
// nothing about the output.
func TestCLIMemBudgetGenerousCompletes(t *testing.T) {
	plain, code := runCLI(t, "-demo", "-k", "2", "-list", "-stats")
	if code != 0 {
		t.Fatalf("reference run: exit %d:\n%s", code, plain)
	}
	budgeted, code := runCLI(t, "-demo", "-k", "2", "-list", "-stats", "-mem-budget", "1Gi")
	if code != 0 {
		t.Fatalf("budgeted run: exit %d:\n%s", code, budgeted)
	}
	if plain != budgeted {
		t.Errorf("a generous budget changed the output:\nplain:\n%s\nbudgeted:\n%s", plain, budgeted)
	}
}

// TestCLICheckpointCompletesAndClears: a checkpointed run that finishes
// removes its snapshot file — nothing stale is left to resume from.
func TestCLICheckpointCompletesAndClears(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	out, code := runCLI(t, "-demo", "-k", "2", "-checkpoint", ckpt)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("completed run left its checkpoint behind (stat err: %v)", err)
	}
}

// A missing or unreadable snapshot is a runtime failure (exit 1), reported
// before any work starts.
func TestCLIResumeMissingSnapshotExitsOne(t *testing.T) {
	out, code := runCLI(t, "-demo", "-k", "2",
		"-resume", filepath.Join(t.TempDir(), "nope.ckpt"))
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "incognito:") {
		t.Fatalf("error output missing command prefix:\n%s", out)
	}
}

// A snapshot in format version 1 is a runtime failure (exit 1) whose
// message names both format versions.
func TestCLIResumeVersionOneSnapshotExitsOne(t *testing.T) {
	payload := `{"fingerprint":{"algorithm":"Basic Incognito","heights":[2,1,2],"k":2,"max_suppress":0,"rows":6,"table_hash":1},` +
		`"boundary":"iteration","seq":1,"iter":1,"history":[[{"d":[0],"l":[1]}]],"stats":{"nodes_checked":5}}`
	sum := sha256.Sum256([]byte(payload))
	env := fmt.Sprintf(`{"version":1,"checksum":"sha256:%s","payload":%s}`, hex.EncodeToString(sum[:]), payload)
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "-demo", "-k", "2", "-resume", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "format version 1") || !strings.Contains(out, "reads 2") {
		t.Errorf("error output does not name both versions:\n%s", out)
	}
}
