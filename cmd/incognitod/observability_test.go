package main

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDaemonObservabilityFlagErrors(t *testing.T) {
	// A negative observability knob is a usage error (exit 2).
	out, err := exec.Command(binPath, "-trace-jobs", "-1").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Errorf("-trace-jobs -1: err %v (out %q), want exit 2", err, out)
	}
}

// TestDaemonObservabilityEndToEnd drives the whole observability surface
// against the real binary: a job with a caller request ID, the trace
// endpoint in both formats, the debug bundle, the phase histogram, and
// the access log on stderr.
func TestDaemonObservabilityEndToEnd(t *testing.T) {
	base, cmd, stderrRest := daemon(t, "-v", "-log-format", "json")

	body, err := json.Marshal(map[string]any{
		"csv":    patientsCSV,
		"qi":     "Birthdate=suppress;Sex=round:1;Zipcode=round:2",
		"policy": map[string]any{"k": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "e2e-observability-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %v", resp.StatusCode, m)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "e2e-observability-1" {
		t.Fatalf("echoed X-Request-Id = %q", got)
	}
	id := m["id"].(string)
	waitDone(t, base, id)

	// The span tree: queue wait, then the run with the library's phases.
	resp, err = http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d: %s", resp.StatusCode, traceBody)
	}
	var doc struct {
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal(traceBody, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("trace has no spans (%v): %s", err, traceBody)
	}
	for _, span := range []string{`"queue_wait"`, `"run"`, `"search"`} {
		if !bytes.Contains(traceBody, []byte(span)) {
			t.Errorf("trace missing %s span:\n%s", span, traceBody)
		}
	}

	resp, err = http.Get(base + "/v1/jobs/" + id + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chromeBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(chromeBody, []byte("traceEvents")) {
		t.Fatalf("chrome trace = %d: %s", resp.StatusCode, chromeBody)
	}

	// The debug bundle is a valid tar.gz with the expected members.
	resp, err = http.Get(base + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		resp.Body.Close()
		t.Fatalf("bundle is not gzip: %v", err)
	}
	members := map[string]bool{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			resp.Body.Close()
			t.Fatalf("bundle is not a tar: %v", err)
		}
		io.Copy(io.Discard, tr)
		members[hdr.Name] = true
	}
	resp.Body.Close()
	for _, want := range []string{"build.txt", "memstats.json", "metrics.prom", "jobs.json", "traces/" + id + ".json"} {
		if !members[want] {
			t.Errorf("bundle missing %s (has %v)", want, members)
		}
	}

	// The job's sealed trace reached the phase histogram.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `incognito_phase_seconds_count{phase="search"}`; !bytes.Contains(metrics, []byte(want)) {
		t.Errorf("metrics missing %q", want)
	}

	// The access log on stderr carries the caller's request ID.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	logsCh := make(chan string, 1)
	go func() { logsCh <- stderrRest() }()
	var logs string
	select {
	case logs = <-logsCh:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\nstderr:\n%s", err, logs)
	}
	var accessLogged bool
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, `"msg":"request"`) &&
			strings.Contains(line, `"request_id":"e2e-observability-1"`) &&
			strings.Contains(line, `"method":"POST"`) {
			accessLogged = true
		}
	}
	if !accessLogged {
		t.Errorf("no access-log line with the caller's request ID:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"job done"`) {
		t.Errorf("no job-lifecycle line:\n%s", logs)
	}
}

// TestDaemonTracingDisabled: -trace-jobs 0 turns the flight recorder off;
// the trace endpoint answers 404 while results stay intact.
func TestDaemonTracingDisabled(t *testing.T) {
	base, _, _ := daemon(t, "-trace-jobs", "0")
	m := postJob(t, base, submitBody(t, 2))
	id := m["id"].(string)
	waitDone(t, base, id)
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(body, []byte("no trace")) {
		t.Fatalf("trace with tracing off = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result with tracing off = %d", resp.StatusCode)
	}
}
