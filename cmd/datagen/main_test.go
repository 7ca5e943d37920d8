package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the datagen binary built once in TestMain for the CLI tests.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "datagen-cli")
	if err != nil {
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "datagen")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.Stderr.WriteString("building datagen CLI: " + err.Error() + "\n" + string(out))
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

// TestDatagenDeterministicBySeed pins the generator contract the bench
// regression gates rely on: a fixed (dataset, rows, seed) triple yields
// byte-identical CSV on every invocation, and changing the seed changes
// the data.
func TestDatagenDeterministicBySeed(t *testing.T) {
	for _, ds := range []string{"adults", "landsend"} {
		first, stderr, code := runCLI(t, "-dataset", ds, "-rows", "50", "-seed", "7")
		if code != 0 {
			t.Fatalf("%s: exit %d, want 0:\n%s", ds, code, stderr)
		}
		again, _, code := runCLI(t, "-dataset", ds, "-rows", "50", "-seed", "7")
		if code != 0 || first != again {
			t.Errorf("%s: same seed produced different CSV (exit %d)", ds, code)
		}
		other, _, code := runCLI(t, "-dataset", ds, "-rows", "50", "-seed", "8")
		if code != 0 || first == other {
			t.Errorf("%s: seeds 7 and 8 produced identical CSV", ds)
		}
		lines := strings.Split(strings.TrimRight(first, "\n"), "\n")
		if len(lines) != 51 { // header + 50 rows
			t.Errorf("%s: got %d CSV lines, want 51", ds, len(lines))
		}
	}
}

// Invalid flags must exit non-zero with a pointed message, never write
// partial output to stdout.
func TestDatagenFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "census"}, `unknown dataset "census"`},
		{[]string{"-rows", "-5"}, "row count must be non-negative"},
	}
	for _, c := range cases {
		stdout, stderr, code := runCLI(t, c.args...)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", c.args, code)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr %q missing %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: wrote %d bytes to stdout on a usage error", c.args, len(stdout))
		}
	}
}

// TestDatagenOutAndHierarchies smoke-tests the file outputs: -out writes
// the CSV to a path (reporting the row count on stderr) and -hierarchies
// writes one dimension-table CSV per QI attribute.
func TestDatagenOutAndHierarchies(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "adults.csv")
	hierDir := filepath.Join(dir, "hier")
	_, stderr, code := runCLI(t,
		"-dataset", "adults", "-rows", "25", "-seed", "1",
		"-out", csvPath, "-hierarchies", hierDir)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "wrote 25 rows") {
		t.Errorf("stderr %q missing row-count report", stderr)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 26 {
		t.Errorf("-out file has %d lines, want 26 (header + 25 rows)", lines)
	}
	entries, err := os.ReadDir(hierDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 { // one dimension table per Adults QI attribute
		t.Errorf("-hierarchies wrote %d files, want 9", len(entries))
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".csv") {
			t.Errorf("unexpected hierarchy file %q", e.Name())
		}
	}
}

// TestDatagenDescribe checks the Fig. 9 description mode mentions both
// datasets and exits 0 without generating data.
func TestDatagenDescribe(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-describe")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	for _, want := range []string{"Adults", "Lands End"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("describe output missing %q", want)
		}
	}
}
