package service

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// sumSpan totals one counter over a SpanDoc subtree.
func sumSpan(s *trace.SpanDoc, counter string) int64 {
	n := s.Counters[counter]
	for _, c := range s.Children {
		n += sumSpan(c, counter)
	}
	return n
}

// TestJobTraceFoldsIntoRegistry: a finished job's trace is one tree —
// queue wait, run, and the library's search phases under it — whose
// counters agree with the run's own Stats, and sealing it folds the
// phase durations into the shared registry.
func TestJobTraceFoldsIntoRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestService(t, Config{Workers: 1, Registry: reg})
	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if st := waitTerminal(t, s, resp.ID); st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	j, _ := s.Job(resp.ID)
	var payload ResultPayload
	if err := json.Unmarshal(j.result, &payload); err != nil {
		t.Fatal(err)
	}

	doc := j.TraceDocument()
	if doc == nil {
		t.Fatal("finished job has no trace")
	}
	for _, name := range []string{"queue_wait", "run"} {
		if got := len(doc.Find(name)); got != 1 {
			t.Fatalf("%s spans = %d, want 1", name, got)
		}
	}
	run := doc.Find("run")[0]
	if len(doc.Find("search")) == 0 {
		t.Fatal("no search spans in the job trace")
	}
	if got := sumSpan(run, "table_scans"); got != int64(payload.Stats.TableScans) {
		t.Errorf("table_scans under run = %d, Stats.TableScans = %d", got, payload.Stats.TableScans)
	}

	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`incognito_phase_seconds_count{phase="run"}`,
		`incognito_phase_seconds_count{phase="search"}`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// syncBuffer guards a log buffer the service's worker goroutines write
// concurrently with the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServicePathTransparency extends the library's telemetry-transparency
// guarantee to the daemon: full observability (tracing, logging, metrics)
// must leave the result bytes identical to a bare service's.
func TestServicePathTransparency(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, "json", true)
	if err != nil {
		t.Fatal(err)
	}
	observed := newTestService(t, Config{
		Workers:  1,
		Registry: telemetry.NewRegistry(),
		Logger:   logger,
	})
	bare := newTestService(t, Config{Workers: 1, TraceJobs: -1})

	r1, serr := observed.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	r2, serr := bare.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	waitTerminal(t, observed, r1.ID)
	waitTerminal(t, bare, r2.ID)
	j1, _ := observed.Job(r1.ID)
	j2, _ := bare.Job(r2.ID)
	if !bytes.Equal(j1.result, j2.result) {
		t.Errorf("observability changed the result bytes:\n%s\n--- bare ---\n%s", j1.result, j2.result)
	}
	if j2.TraceDocument() != nil {
		t.Error("TraceJobs<0 still produced a trace")
	}
	if logBuf.Len() == 0 {
		t.Error("observed service logged nothing")
	}
}

func TestTraceEndpoint(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	waitTerminal(t, s, resp.ID)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		return r, b
	}

	r, body := get("/v1/jobs/" + resp.ID + "/trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d: %s", r.StatusCode, body)
	}
	var doc trace.Document
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not a Document: %v", err)
	}
	for _, name := range []string{"queue_wait", "run"} {
		if len(doc.Find(name)) != 1 {
			t.Errorf("served trace missing %q span:\n%s", name, body)
		}
	}

	r, body = get("/v1/jobs/" + resp.ID + "/trace?format=chrome")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace = %d: %s", r.StatusCode, body)
	}
	if cd := r.Header.Get("Content-Disposition"); !strings.Contains(cd, resp.ID) {
		t.Errorf("chrome trace Content-Disposition %q lacks the job id", cd)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome trace has no traceEvents: %v %s", err, body)
	}

	if r, _ = get("/v1/jobs/" + resp.ID + "/trace?format=svg"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", r.StatusCode)
	}
	if r, _ = get("/v1/jobs/job-999999/trace"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", r.StatusCode)
	}

	// A cache-hit job never ran, so it has no trace of its own.
	dup, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	if !dup.CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	r, body = get("/v1/jobs/" + dup.ID + "/trace")
	if r.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "no trace") {
		t.Errorf("cache-hit trace = %d %s, want 404", r.StatusCode, body)
	}
}

// TestLiveTraceWhileRunning: a running job serves a live snapshot instead
// of 404ing until completion.
func TestLiveTraceWhileRunning(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookBeforeRun = func(*Job) {
		close(entered)
		<-release
	}
	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	<-entered
	j, _ := s.Job(resp.ID)
	doc := j.TraceDocument()
	if doc == nil || len(doc.Find("queue_wait")) != 1 {
		t.Errorf("live trace = %+v, want a snapshot with queue_wait", doc)
	}
	close(release)
	waitTerminal(t, s, resp.ID)
}

func TestTraceFlightRecorderEviction(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, TraceJobs: 1})
	submitK := func(k int) string {
		req := validRequest()
		req.Policy.K = k
		resp, serr := s.Submit(req)
		if serr != nil {
			t.Fatal(serr)
		}
		waitTerminal(t, s, resp.ID)
		return resp.ID
	}
	first := submitK(2)
	second := submitK(3)
	jFirst, _ := s.Job(first)
	jSecond, _ := s.Job(second)
	if jFirst.TraceDocument() != nil {
		t.Error("oldest trace survived past the flight-recorder cap")
	}
	if jSecond.TraceDocument() == nil {
		t.Error("newest trace was evicted")
	}
}

// TestCancelledQueuedJobSealsTrace: a job cancelled while queued never
// reaches a worker, so Cancel itself must seal its queue-wait trace.
func TestCancelledQueuedJobSealsTrace(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer close(release)
	if _, serr := s.Submit(validRequest()); serr != nil {
		t.Fatal(serr)
	}
	<-entered
	req := validRequest()
	req.Policy.K = 3
	queued, serr := s.Submit(req)
	if serr != nil {
		t.Fatal(serr)
	}
	s.Cancel(queued.ID)
	j, _ := s.Job(queued.ID)
	doc := j.TraceDocument()
	if doc == nil || len(doc.Find("queue_wait")) != 1 {
		t.Errorf("cancelled queued job trace = %+v, want sealed queue_wait", doc)
	}
	if len(doc.Find("run")) != 0 {
		t.Error("cancelled queued job has a run span")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, "json", true)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1, Logger: logger})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A client-supplied X-Request-Id is honored end to end: echoed on the
	// response, attached to the job, visible in the access log.
	body, _ := json.Marshal(validRequest())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "caller-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-trace-42" {
		t.Errorf("echoed X-Request-Id = %q", got)
	}
	id := m["id"].(string)
	waitTerminal(t, s, id)

	st, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	stBody, _ := io.ReadAll(st.Body)
	st.Body.Close()
	if !bytes.Contains(stBody, []byte(`"request_id":"caller-trace-42"`)) {
		t.Errorf("status lacks the request id: %s", stBody)
	}

	logs := logBuf.String()
	var accessLogged bool
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, `"msg":"request"`) &&
			strings.Contains(line, `"request_id":"caller-trace-42"`) &&
			strings.Contains(line, `"path":"/v1/jobs"`) &&
			strings.Contains(line, `"method":"POST"`) &&
			strings.Contains(line, `"status":202`) {
			accessLogged = true
		}
	}
	if !accessLogged {
		t.Errorf("no access-log line for the submission:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"job queued"`) {
		t.Errorf("no job-lifecycle line:\n%s", logs)
	}

	// Without a client header, the middleware generates one.
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if rid := r2.Header.Get("X-Request-Id"); len(rid) != 16 {
		t.Errorf("generated X-Request-Id = %q, want 16 hex chars", rid)
	}
}

func TestIndexListsMountedEndpoints(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"/v1/jobs", "/v1/jobs/{id}/trace", "/v1/jobs/{id}/result",
		"/healthz", "/metrics", "/debug/pprof/", "/debug/bundle",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("index missing %s:\n%s", want, body)
		}
	}
	// Unknown paths must not fall through to the index.
	r2, err := http.Get(ts.URL + "/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", r2.StatusCode)
	}
}

func TestDebugBundle(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, Registry: telemetry.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	waitTerminal(t, s, resp.ID)

	r, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != "application/gzip" {
		t.Fatalf("bundle = %d %s", r.StatusCode, r.Header.Get("Content-Type"))
	}
	gz, err := gzip.NewReader(r.Body)
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	members := map[string][]byte{}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle is not a tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		members[hdr.Name] = data
	}
	for _, want := range []string{"build.txt", "memstats.json", "metrics.prom", "jobs.json"} {
		if _, ok := members[want]; !ok {
			t.Errorf("bundle missing %s (has %v)", want, keys(members))
		}
	}
	if !bytes.Contains(members["build.txt"], []byte("gomaxprocs:")) {
		t.Errorf("build.txt lacks gomaxprocs:\n%s", members["build.txt"])
	}
	var ms map[string]any
	if err := json.Unmarshal(members["memstats.json"], &ms); err != nil {
		t.Errorf("memstats.json: %v", err)
	}
	if !bytes.Contains(members["metrics.prom"], []byte("incognitod_runs_total")) {
		t.Errorf("metrics.prom lacks the service gauges:\n%s", members["metrics.prom"])
	}
	var statuses []StatusResponse
	if err := json.Unmarshal(members["jobs.json"], &statuses); err != nil || len(statuses) != 1 {
		t.Errorf("jobs.json = %v entries (%v)", len(statuses), err)
	}
	traceName := "traces/" + resp.ID + ".json"
	var doc trace.Document
	if err := json.Unmarshal(members[traceName], &doc); err != nil || len(doc.Find("run")) != 1 {
		t.Errorf("%s missing or malformed (%v)", traceName, err)
	}
	// Disclosure posture: no released cell values in the bundle.
	for name, data := range members {
		if bytes.Contains(data, []byte("Hepatitis")) {
			t.Errorf("%s leaks table cell values", name)
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
