package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incognito/internal/trace"
)

// writeDeltaFixture writes a base CSV, a delta-add CSV, a delta-del CSV
// (rows drawn from the base), and the edited CSV a cold run compares
// against, all sharing one header.
func writeDeltaFixture(t *testing.T, dir string) (base, addFile, delFile, edited string) {
	t.Helper()
	header := "Zip,Sex\n"
	zips := []string{"53711", "53715", "53703", "53706"}
	sexes := []string{"Male", "Female"}
	row := func(i int) string { return zips[i%4] + "," + sexes[i%2] + "\n" }

	var baseRows, editedRows strings.Builder
	baseRows.WriteString(header)
	editedRows.WriteString(header)
	delRows := header
	for i := 0; i < 60; i++ {
		baseRows.WriteString(row(i))
		// Delete the first two occurrences of "53715,Female": deltas match
		// by content, so the canonical edited table drops first occurrences.
		if i == 1 || i == 5 {
			delRows += row(i)
			continue
		}
		editedRows.WriteString(row(i))
	}
	addRows := header + "60601,Male\n60601,Female\n"
	editedRows.WriteString("60601,Male\n60601,Female\n")

	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("base.csv", baseRows.String()),
		write("add.csv", addRows),
		write("del.csv", delRows),
		write("edited.csv", editedRows.String())
}

// TestCLIDeltaBitIdenticalToColdRun pins the tentpole at the CLI surface:
// -state-in + -delta-add/-delta-del produces byte-identical released CSV,
// -list, and search -stats to a cold run over the edited CSV.
func TestCLIDeltaBitIdenticalToColdRun(t *testing.T) {
	dir := t.TempDir()
	base, addFile, delFile, edited := writeDeltaFixture(t, dir)
	statePath := filepath.Join(dir, "run.state")
	qi := "Zip=round:2;Sex=suppress"

	out, code := runCLI(t, "-input", base, "-qi", qi, "-k", "3", "-suppress", "2",
		"-state-out", statePath, "-output", filepath.Join(dir, "cold.csv"))
	if code != 0 {
		t.Fatalf("state-capturing run: exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "wrote run state") {
		t.Fatalf("no state-written notice:\n%s", out)
	}

	for _, par := range []string{"1", "2"} {
		deltaOut := filepath.Join(dir, "delta-"+par+".csv")
		coldOut := filepath.Join(dir, "coldE-"+par+".csv")
		dLog, code := runCLI(t, "-input", base, "-qi", qi, "-k", "3", "-suppress", "2",
			"-parallelism", par,
			"-state-in", statePath, "-delta-add", addFile, "-delta-del", delFile,
			"-list", "-stats", "-output", deltaOut)
		if code != 0 {
			t.Fatalf("delta run (p=%s): exit %d, want 0:\n%s", par, code, dLog)
		}
		cLog, code := runCLI(t, "-input", edited, "-qi", qi, "-k", "3", "-suppress", "2",
			"-parallelism", par,
			"-list", "-stats", "-output", coldOut)
		if code != 0 {
			t.Fatalf("cold run (p=%s): exit %d, want 0:\n%s", par, code, cLog)
		}
		dCSV, err := os.ReadFile(deltaOut)
		if err != nil {
			t.Fatal(err)
		}
		cCSV, err := os.ReadFile(coldOut)
		if err != nil {
			t.Fatal(err)
		}
		if string(dCSV) != string(cCSV) {
			t.Fatalf("(p=%s) released views differ:\ndelta:\n%s\ncold:\n%s", par, dCSV, cCSV)
		}
		if !strings.Contains(dLog, "delta: ") {
			t.Fatalf("delta -stats missing counters line:\n%s", dLog)
		}
		// From the searched-stats line to the final "wrote … to <path>"
		// line (paths differ by construction), the delta run's log — the
		// stats, the solution list, the chosen generalization — must
		// match the cold run's verbatim.
		trim := func(log string) string {
			i := strings.Index(log, "searched: ")
			j := strings.LastIndex(log, "wrote ")
			if i < 0 || j < i {
				return ""
			}
			return log[i:j]
		}
		if trim(dLog) == "" || trim(dLog) != trim(cLog) {
			t.Fatalf("(p=%s) search stats differ:\ndelta:\n%s\ncold:\n%s", par, dLog, cLog)
		}
	}
}

// TestCLIDeltaChainsThroughStateOut: a delta run can itself write a state
// usable by a further delta run.
func TestCLIDeltaChainsThroughStateOut(t *testing.T) {
	dir := t.TempDir()
	base, addFile, delFile, edited := writeDeltaFixture(t, dir)
	state1 := filepath.Join(dir, "s1.state")
	state2 := filepath.Join(dir, "s2.state")
	qi := "Zip=round:2;Sex=suppress"

	if out, code := runCLI(t, "-input", base, "-qi", qi, "-k", "2", "-suppress", "1", "-state-out", state1,
		"-output", filepath.Join(dir, "o0.csv")); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if out, code := runCLI(t, "-input", base, "-qi", qi, "-k", "2", "-suppress", "1",
		"-state-in", state1, "-delta-add", addFile, "-delta-del", delFile,
		"-state-out", state2, "-output", filepath.Join(dir, "o1.csv")); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// Second hop: delete one of the rows added in the first hop.
	del2 := filepath.Join(dir, "del2.csv")
	if err := os.WriteFile(del2, []byte("Zip,Sex\n60601,Male\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hopOut := filepath.Join(dir, "hop.csv")
	if out, code := runCLI(t, "-input", edited, "-qi", qi, "-k", "2", "-suppress", "1",
		"-state-in", state2, "-delta-del", del2, "-output", hopOut); code != 0 {
		t.Fatalf("second hop: exit %d:\n%s", code, out)
	}
	// Cold reference over the twice-edited table.
	editedBytes, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	twice := strings.Replace(string(editedBytes), "60601,Male\n", "", 1)
	twicePath := filepath.Join(dir, "twice.csv")
	if err := os.WriteFile(twicePath, []byte(twice), 0o644); err != nil {
		t.Fatal(err)
	}
	coldOut := filepath.Join(dir, "coldTwice.csv")
	if out, code := runCLI(t, "-input", twicePath, "-qi", qi, "-k", "2", "-suppress", "1", "-output", coldOut); code != 0 {
		t.Fatalf("cold twice-edited run: exit %d:\n%s", code, out)
	}
	got, err := os.ReadFile(hopOut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("chained delta view differs from cold run:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCLIDeltaFlagValidation: misuse of the delta flags is a usage error
// (exit 2), and runtime failures (bad state file, mismatched delta header)
// exit 1.
func TestCLIDeltaFlagValidation(t *testing.T) {
	dir := t.TempDir()
	base, addFile, _, _ := writeDeltaFixture(t, dir)
	qi := "Zip=round:2;Sex=suppress"
	usage := [][]string{
		{"-input", base, "-qi", qi, "-delta-add", addFile},                   // no -state-in
		{"-input", base, "-qi", qi, "-state-out", "s", "-algorithm", "cube"}, // non-basic
		{"-demo", "-state-out", "s"},                                         // demo
		{"-input", base, "-qi", qi, "-state-in", "s", "-mem-budget", "64Mi"}, // budget
	}
	for _, args := range usage {
		if out, code := runCLI(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
	// A missing state file is a runtime failure.
	if out, code := runCLI(t, "-input", base, "-qi", qi, "-state-in", filepath.Join(dir, "nope.state")); code != 1 {
		t.Errorf("missing state file: exit %d, want 1\n%s", code, out)
	}
	// A delta file with a different header is a runtime failure.
	state := filepath.Join(dir, "v.state")
	if out, code := runCLI(t, "-input", base, "-qi", qi, "-state-out", state,
		"-output", filepath.Join(dir, "v.csv")); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	badDelta := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(badDelta, []byte("Zip,Gender\n53711,Male\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runCLI(t, "-input", base, "-qi", qi, "-state-in", state, "-delta-add", badDelta); code != 1 {
		t.Errorf("mismatched delta header: exit %d, want 1\n%s", code, out)
	}
}

// TestCLIDeltaRefusesVersionOneState: a state file written in format
// version 1, which still carried the base-level frequency set, is a
// runtime failure naming both versions.
func TestCLIDeltaRefusesVersionOneState(t *testing.T) {
	dir := t.TempDir()
	base, addFile, _, _ := writeDeltaFixture(t, dir)
	payload := `{"fingerprint":{"algorithm":"incognito","heights":[2,1],"k":2,"max_suppress":0,"rows":1,"table_hash":1},` +
		`"cols":["Zip","Sex"],"k":2,"max_suppress":0,"rows":1,"base":[{"v":["53711","Male"],"n":1}],"records":[]}`
	sum := sha256.Sum256([]byte(payload))
	state := filepath.Join(dir, "v1.state")
	env := fmt.Sprintf(`{"version":1,"checksum":"sha256:%x","payload":%s}`, sum, payload)
	if err := os.WriteFile(state, []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "-input", base, "-qi", "Zip=round:2;Sex=suppress", "-state-in", state, "-delta-add", addFile)
	if code != 1 || !strings.Contains(out, "format version 1") || !strings.Contains(out, "reads 2") {
		t.Fatalf("version-1 state: exit %d, want 1 with an error naming versions 1 and 2\n%s", code, out)
	}
}

// TestCLIDeltaTracesStateFile: with -trace, a delta run shows the state
// file's load and save as state.load and state.save spans, each carrying
// the file's size as a bytes attribute rather than a counter.
func TestCLIDeltaTracesStateFile(t *testing.T) {
	dir := t.TempDir()
	base, addFile, delFile, _ := writeDeltaFixture(t, dir)
	state1 := filepath.Join(dir, "s1.state")
	state2 := filepath.Join(dir, "s2.state")
	tracePath := filepath.Join(dir, "trace.json")
	qi := "Zip=round:2;Sex=suppress"

	if out, code := runCLI(t, "-input", base, "-qi", qi, "-k", "2", "-state-out", state1,
		"-output", filepath.Join(dir, "o0.csv")); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if out, code := runCLI(t, "-input", base, "-qi", qi, "-k", "2",
		"-state-in", state1, "-delta-add", addFile, "-delta-del", delFile,
		"-state-out", state2, "-trace", tracePath, "-output", filepath.Join(dir, "o1.csv")); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc trace.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for span, file := range map[string]string{"state.load": state1, "state.save": state2} {
		fi, err := os.Stat(file)
		if err != nil {
			t.Fatal(err)
		}
		found := doc.Find(span)
		if len(found) != 1 {
			t.Fatalf("trace has %d %s spans, want 1", len(found), span)
		}
		if got, ok := found[0].Attrs["bytes"].(float64); !ok || int64(got) != fi.Size() {
			t.Errorf("%s span bytes = %v, want the file size %d", span, found[0].Attrs["bytes"], fi.Size())
		}
		if len(found[0].Counters) != 0 {
			t.Errorf("%s span carries counters %v, want none", span, found[0].Counters)
		}
	}
}
