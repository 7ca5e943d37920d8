package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchTimeoutExits124: a sweep that overruns -timeout exits 124 and
// still flushes its metrics snapshot, stamped as cancelled.
func TestBenchTimeoutExits124(t *testing.T) {
	promPath := filepath.Join(t.TempDir(), "metrics.prom")
	_, stderr, code := runCLI(t,
		"-experiment", "parallel", "-rows", "200", "-landsend-rows", "300",
		"-seed", "1", "-algos", "basic", "-quiet",
		"-timeout", "1ns", "-metrics-out", promPath)
	if code != 124 {
		t.Fatalf("exit %d, want 124:\n%s", code, stderr)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatalf("metrics not flushed on timeout: %v", err)
	}
	if !strings.Contains(string(prom), "incognito_run_cancelled 1") {
		t.Errorf("metrics snapshot does not record the cancellation:\n%s", prom)
	}
}

// Resilience flag misuse is a usage error, exit 2.
func TestBenchResilienceUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-experiment", "fig9", "-mem-budget", "12.5Mi"},
		{"-experiment", "fig9", "-timeout", "-2s"},
		// Retired: a resumed sweep handed one snapshot to every cell of
		// the same workload and reported partial wall times.
		{"-experiment", "fig9", "-checkpoint", "sweep.ckpt"},
		{"-experiment", "fig9", "-resume", "sweep.ckpt"},
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
