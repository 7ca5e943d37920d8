package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	incognito "incognito"
	"incognito/internal/telemetry"
)

// patientsCSV is the paper's example table; with the spec below and k=2 it
// has exactly two solutions, so every lifecycle test has real work to run.
const patientsCSV = `Birthdate,Sex,Zipcode,Disease
1/21/76,Male,53715,Flu
4/13/86,Female,53715,Hepatitis
2/28/76,Male,53703,Bronchitis
1/21/76,Male,53703,Broken Arm
4/13/86,Female,53706,Sprained Ankle
2/28/76,Female,53706,Hang Nail
`

const patientsQI = "Birthdate=suppress;Sex=round:1;Zipcode=round:2"

func validRequest() SubmitRequest {
	return SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2}}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

// waitTerminal polls a job until it leaves the queue/run states.
func waitTerminal(t *testing.T, s *Service, id string) StatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return StatusResponse{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if resp.State != StateQueued || resp.CacheHit || resp.Coalesced {
		t.Fatalf("fresh submission = %+v, want queued/no-hit/no-coalesce", resp)
	}
	st := waitTerminal(t, s, resp.ID)
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}

	j, _ := s.Job(resp.ID)
	var payload ResultPayload
	if err := json.Unmarshal(j.result, &payload); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if len(payload.Solutions) != 2 || !payload.Complete {
		t.Fatalf("got %d solutions (complete=%v), want 2 complete", len(payload.Solutions), payload.Complete)
	}

	// The daemon's released CSV must be byte-identical to the library path
	// the CLI uses for the same inputs.
	table, err := incognito.ReadCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	res, err := incognito.Anonymize(table, mustQI(t), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best(incognito.MinHeight())
	view, err := best.Apply()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := view.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if payload.ReleasedCSV != want.String() {
		t.Errorf("daemon CSV differs from library CSV:\n%s\n--- want ---\n%s", payload.ReleasedCSV, want.String())
	}
}

func mustQI(t *testing.T) []incognito.QI {
	t.Helper()
	return []incognito.QI{
		{Column: "Birthdate", Hierarchy: incognito.Suppression()},
		{Column: "Sex", Hierarchy: incognito.RoundDigits(1)},
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(2)},
	}
}

func TestDuplicateSubmissionIsCacheHit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	first, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	waitTerminal(t, s, first.ID)

	again, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatalf("resubmit: %v", serr)
	}
	if !again.CacheHit || again.State != StateDone {
		t.Fatalf("duplicate = %+v, want instant cache hit", again)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d, want 1 (duplicate must not re-run)", s.Runs())
	}

	// Parallelism, budget and timeout are result-transparent, so varying
	// only them must land on the same cache entry.
	variant := validRequest()
	variant.Policy.Parallelism = 1
	variant.Policy.Timeout = "1m"
	v, serr := s.Submit(variant)
	if serr != nil {
		t.Fatalf("variant: %v", serr)
	}
	if !v.CacheHit {
		t.Fatal("parallelism/timeout variant missed the cache; key over-discriminates")
	}

	// A different k is a different result: must miss.
	other := validRequest()
	other.Policy.K = 3
	o, serr := s.Submit(other)
	if serr != nil {
		t.Fatalf("k=3: %v", serr)
	}
	if o.CacheHit {
		t.Fatal("k=3 submission hit the k=2 cache entry")
	}
}

// TestConcurrentIdenticalSubmissionsCoalesce is the cache/queue race test:
// many goroutines submitting the same request while the single run is held
// in flight must produce exactly one underlying run.
func TestConcurrentIdenticalSubmissionsCoalesce(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHookBeforeRun = func(*Job) {
		close(entered)
		<-release
	}

	first, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	<-entered // the run is now held in flight

	const n = 10
	var wg sync.WaitGroup
	responses := make([]*SubmitResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, serr := s.Submit(validRequest())
			if serr != nil {
				t.Errorf("goroutine %d: %v", i, serr)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	close(release)

	for i, resp := range responses {
		if resp == nil {
			continue
		}
		if !resp.Coalesced || resp.ID != first.ID {
			t.Errorf("goroutine %d: %+v, want coalesced onto %s", i, resp, first.ID)
		}
	}
	st := waitTerminal(t, s, first.ID)
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if st.Coalesced != n {
		t.Errorf("coalesced_submissions = %d, want %d", st.Coalesced, n)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d, want exactly 1", s.Runs())
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}
	defer close(release)

	// Distinct k values keep the submissions from coalescing.
	submit := func(k int) (*SubmitResponse, *submitError) {
		req := validRequest()
		req.Policy.K = k
		return s.Submit(req)
	}
	if _, serr := submit(2); serr != nil {
		t.Fatalf("first: %v", serr)
	}
	<-entered // worker holds job 1; the queue slot is free again
	if _, serr := submit(3); serr != nil {
		t.Fatalf("second: %v", serr)
	}
	_, serr := submit(4)
	if serr == nil || serr.status != http.StatusTooManyRequests {
		t.Fatalf("third = %v, want 429", serr)
	}
}

func TestCancelQueuedAndRunningJobs(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}

	running, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	<-entered
	queuedReq := validRequest()
	queuedReq.Policy.K = 3
	queued, serr := s.Submit(queuedReq)
	if serr != nil {
		t.Fatal(serr)
	}

	// Cancelling a queued job finalizes it immediately.
	if found, cancelled := s.Cancel(queued.ID); !found || !cancelled {
		t.Fatalf("Cancel(queued) = %v, %v", found, cancelled)
	}
	j, _ := s.Job(queued.ID)
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled", st.State)
	}

	// Cancelling the running job cancels its context; releasing the hook
	// lets the run start against the already-cancelled context, so it
	// returns with context.Canceled.
	if found, cancelled := s.Cancel(running.ID); !found || !cancelled {
		t.Fatalf("Cancel(running) = %v, %v", found, cancelled)
	}
	close(release)
	st := waitTerminal(t, s, running.ID)
	if st.State != StateCancelled {
		t.Fatalf("running job state %s (err %q), want cancelled", st.State, st.Error)
	}

	// Both were cancelled, never completed: the cache must stay empty.
	if s.Cache().Len() != 0 {
		t.Fatalf("cache has %d entries after cancellations", s.Cache().Len())
	}
	if found, cancelled := s.Cancel(running.ID); !found || cancelled {
		t.Fatalf("re-Cancel(terminal) = %v, %v, want found but not cancelled", found, cancelled)
	}
	if found, _ := s.Cancel("job-nope"); found {
		t.Fatal("Cancel of unknown id reported found")
	}
}

func TestJobTimeoutFails(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	s.testHookBeforeRun = func(j *Job) {
		// Sleep past the policy deadline so the run starts with an already
		// expired context.
		time.Sleep(30 * time.Millisecond)
	}
	req := validRequest()
	req.Policy.Timeout = "5ms"
	resp, serr := s.Submit(req)
	if serr != nil {
		t.Fatal(serr)
	}
	st := waitTerminal(t, s, resp.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "timed out") {
		t.Fatalf("state %s err %q, want failed with timeout", st.State, st.Error)
	}
}

func TestDrainFinishesInFlightCancelsQueued(t *testing.T) {
	s, _ := New(Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}

	running, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	<-entered
	queuedReq := validRequest()
	queuedReq.Policy.K = 3
	queued, serr := s.Submit(queuedReq)
	if serr != nil {
		t.Fatal(serr)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	// Drain flips the flag synchronously under s.mu before waiting.
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Draining() never became true")
		}
		time.Sleep(time.Millisecond)
	}
	if _, serr := s.Submit(validRequest()); serr == nil || serr.status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %v, want 503", serr)
	}

	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
	}

	if st := waitTerminal(t, s, running.ID); st.State != StateDone {
		t.Fatalf("in-flight job state %s, want done (drain must let it finish)", st.State)
	}
	if st := waitTerminal(t, s, queued.ID); st.State != StateCancelled {
		t.Fatalf("queued job state %s, want cancelled by drain", st.State)
	}
	completed, failed, cancelled := s.Counts()
	if completed != 1 || failed != 0 || cancelled != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 1/0/1", completed, failed, cancelled)
	}
	// Idempotent: a second drain returns immediately.
	s.Drain()
}

// submitValidationCases are requests Submit refuses with 400, each with a
// word its error must contain. FuzzSubmitRequest seeds from them too.
var submitValidationCases = []struct {
	name string
	req  SubmitRequest
	want string
}{
	{"zero k", SubmitRequest{CSV: patientsCSV, QI: patientsQI}, "policy.k"},
	{"bad algorithm", SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2, Algorithm: "quantum"}}, "policy.algorithm"},
	{"bad timeout", SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2, Timeout: "soon"}}, "policy.timeout"},
	{"bad criterion", SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2, Criterion: "vibes"}}, "policy.criterion"},
	{"bad mem budget", SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2, MemBudget: "lots"}}, "policy.mem_budget"},
	{"empty csv", SubmitRequest{QI: patientsQI, Policy: Policy{K: 2}}, "csv"},
	{"bad qi spec", SubmitRequest{CSV: patientsCSV, QI: "Sex", Policy: Policy{K: 2}}, "qi"},
	{"unknown column", SubmitRequest{CSV: patientsCSV, QI: "Nope=suppress", Policy: Policy{K: 2}}, "Nope"},
	{"file hierarchy denied", SubmitRequest{CSV: patientsCSV, QI: "Sex=taxonomy:/etc/passwd", Policy: Policy{K: 2}}, "not allowed"},
	{"rounding height over the cap", SubmitRequest{CSV: patientsCSV, QI: "Birthdate=suppress;Sex=round:1;Zipcode=round:65", Policy: Policy{K: 2}}, "rounding height"},
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for _, tc := range submitValidationCases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := s.Submit(tc.req)
			if serr == nil {
				t.Fatal("accepted, want rejection")
			}
			if serr.status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", serr.status)
			}
			if !strings.Contains(serr.msg, tc.want) {
				t.Fatalf("error %q does not mention %q", serr.msg, tc.want)
			}
		})
	}
}

// TestHTTPEndToEnd drives the full lifecycle through the HTTP handler:
// submit, poll, result, duplicate hit, cancel paths, health, metrics.
func TestHTTPEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestService(t, Config{Workers: 2, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return resp.StatusCode, m
	}
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	reqBody, _ := json.Marshal(validRequest())

	code, m := post(string(reqBody))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d %v, want 202", code, m)
	}
	id := m["id"].(string)

	// Result before completion is 409 (or the job races to done first).
	if code, body := get("/v1/jobs/" + id + "/result"); code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("early result = %d %s, want 409 or 200", code, body)
	}
	waitTerminal(t, s, id)

	code, body := get("/v1/jobs/" + id)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"state":"done"`)) {
		t.Fatalf("status = %d %s", code, body)
	}
	code, body = get("/v1/jobs/" + id + "/result")
	if code != http.StatusOK {
		t.Fatalf("result = %d %s", code, body)
	}
	var payload ResultPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if len(payload.Solutions) != 2 || payload.ReleasedCSV == "" {
		t.Fatalf("payload = %d solutions, csv %d bytes", len(payload.Solutions), len(payload.ReleasedCSV))
	}

	// Duplicate over HTTP: 200 with cache_hit.
	code, m = post(string(reqBody))
	if code != http.StatusOK || m["cache_hit"] != true {
		t.Fatalf("duplicate = %d %v, want 200 cache_hit", code, m)
	}

	// Listing includes both job records.
	code, body = get("/v1/jobs")
	var list []StatusResponse
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if err := json.Unmarshal(body, &list); err != nil || len(list) != 2 {
		t.Fatalf("list = %d entries (%v)", len(list), err)
	}

	// Error paths.
	if code, _ := get("/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
	if code, m := post("{"); code != http.StatusBadRequest || m["error"] == "" {
		t.Fatalf("bad JSON = %d %v, want 400", code, m)
	}
	if code, m := post(`{"csv":"a,b\n1,2\n","qi":"a=suppress","policy":{"k":0}}`); code != http.StatusBadRequest || m["error"] == "" {
		t.Fatalf("k=0 = %d %v, want 400", code, m)
	}
	if code, _ := post(`{"surprise":true}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}
	// A policy field this daemon does not know — such as the partition
	// count or the kernel older versions accepted — is refused by name.
	csvJSON, _ := json.Marshal(patientsCSV)
	for _, field := range []string{`"partitions":2`, `"kernel":"sparse"`} {
		retired := `{"csv":` + string(csvJSON) + `,"qi":"` + patientsQI + `","policy":{"k":2,` + field + `}}`
		name := field[:strings.Index(field, ":")]
		if code, m := post(retired); code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(m["error"]), name) {
			t.Fatalf("retired policy field %s = %d %v, want 400 naming it", name, code, m)
		}
	}
	// One JSON value per body: a second value, or any other trailing
	// bytes, is refused instead of silently dropped.
	for _, trailing := range []string{`{"policy":{"k":5}}`, ` trailing garbage`} {
		if code, m := post(string(reqBody) + trailing); code != http.StatusBadRequest || m["error"] == "" {
			t.Fatalf("body with trailing %q = %d %v, want 400", trailing, code, m)
		}
	}

	// DELETE on a finished job is 409; on an unknown job 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE finished = %d, want 409", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown = %d, want 404", resp.StatusCode)
	}

	// Health and index.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	code, body = get("/")
	if code != http.StatusOK || !bytes.Contains(body, []byte("POST   /v1/jobs")) {
		t.Fatalf("index = %d %s", code, body)
	}

	// Metrics: the service gauges are live on the shared registry.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, gauge := range []string{
		"incognitod_queue_depth", "incognitod_jobs_active", "incognitod_runs_total 1",
		"incognitod_cache_entries 1", "incognitod_cache_hits 1", "incognitod_cache_hit_ratio 0.5",
	} {
		if !bytes.Contains(body, []byte(gauge)) {
			t.Errorf("metrics missing %q", gauge)
		}
	}
}

func TestHealthAndReadyDuringDrain(t *testing.T) {
	s, _ := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Drain()
	// Liveness stays 200 — the process is up and answering status polls;
	// readiness flips to 503 so load balancers stop routing new work here.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

func TestJobKeyDiscriminates(t *testing.T) {
	table, err := incognito.ReadCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	qi := mustQI(t)
	fp := func(k int) incognito.Fingerprint {
		f, err := incognito.RunFingerprint(table, qi, incognito.Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	base := jobKey(fp(2), patientsCSV, patientsQI, "height")
	if got := jobKey(fp(2), patientsCSV, patientsQI, "height"); got != base {
		t.Fatal("identical inputs produced different keys")
	}
	// Spec canonicalization: whitespace and trailing separators are identity.
	loose := " Birthdate=suppress ; Sex=round:1 ; Zipcode=round:2 ; "
	if got := jobKey(fp(2), patientsCSV, loose, "height"); got != base {
		t.Errorf("canonically equal spec produced a different key:\n%s\n%s", got, base)
	}
	for name, other := range map[string]string{
		"k":         jobKey(fp(3), patientsCSV, patientsQI, "height"),
		"criterion": jobKey(fp(2), patientsCSV, patientsQI, "precision"),
		"dataset":   jobKey(fp(2), patientsCSV+"3/3/76,Male,53715,Flu\n", patientsQI, "height"),
		"spec":      jobKey(fp(2), patientsCSV, "Birthdate=suppress;Sex=round:1;Zipcode=round:3", "height"),
	} {
		if other == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

func TestResolveDefaults(t *testing.T) {
	cfg := &Config{DefaultTimeout: time.Minute, DefaultMemBudget: 1 << 20, DefaultParallelism: 3}
	r, err := cfg.resolve(Policy{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.timeout != time.Minute || r.memBudget != 1<<20 || r.parallelism != 3 {
		t.Fatalf("defaults not applied: %+v", r)
	}
	// Explicit "0" disables the timeout even when the daemon has a default.
	r, err = cfg.resolve(Policy{K: 2, Timeout: "0s"})
	if err != nil {
		t.Fatal(err)
	}
	if r.timeout != 0 {
		t.Fatalf("timeout %v, want 0 (explicitly disabled)", r.timeout)
	}
	if _, err := cfg.resolve(Policy{K: 2, Timeout: "-1s"}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if _, err := cfg.resolve(Policy{K: 2, MaxSuppress: -1}); err == nil {
		t.Fatal("negative max_suppress accepted")
	}
	if _, err := cfg.resolve(Policy{K: 2, Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
	if _, err := cfg.resolve(Policy{K: 2, MaterializeBudget: -1}); err == nil {
		t.Fatal("negative materialize_budget accepted")
	}
	if fmt.Sprintf("%v", r.algorithm) == "" {
		t.Fatal("algorithm default missing")
	}
}
