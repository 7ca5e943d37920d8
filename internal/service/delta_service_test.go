package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	incognito "incognito"
	"incognito/internal/telemetry"
)

// addOneCSV duplicates the patients table's first row — a delta that can
// only grow group counts, so the edited table keeps its solutions.
const addOneCSV = `Birthdate,Sex,Zipcode,Disease
1/21/76,Male,53715,Flu
`

func retainRequest() SubmitRequest {
	return SubmitRequest{CSV: patientsCSV, QI: patientsQI, Policy: Policy{K: 2, RetainState: true}}
}

func submitAndWait(t *testing.T, s *Service, req SubmitRequest) *Job {
	t.Helper()
	resp, serr := s.Submit(req)
	if serr != nil {
		t.Fatalf("Submit: %v", serr)
	}
	if st := waitTerminal(t, s, resp.ID); st.State != StateDone {
		t.Fatalf("job %s state %s (err %q), want done", resp.ID, st.State, st.Error)
	}
	j, _ := s.Job(resp.ID)
	return j
}

func deltaAndWait(t *testing.T, s *Service, parentID string, req DeltaRequest) *Job {
	t.Helper()
	resp, serr := s.SubmitDelta(parentID, req)
	if serr != nil {
		t.Fatalf("SubmitDelta: %v", serr)
	}
	if st := waitTerminal(t, s, resp.ID); st.State != StateDone {
		t.Fatalf("delta job %s state %s (err %q), want done", resp.ID, st.State, st.Error)
	}
	j, _ := s.Job(resp.ID)
	return j
}

func resultPayload(t *testing.T, j *Job) ResultPayload {
	t.Helper()
	var p ResultPayload
	if err := json.Unmarshal(j.result, &p); err != nil {
		t.Fatalf("job %s payload: %v", j.ID, err)
	}
	return p
}

// TestDeltaJobBitIdenticalToColdSubmission is the service-level tentpole
// contract: a delta job's result payload equals a cold submission of the
// edited dataset field for field (minus the delta counters), and delta
// jobs chain — a second delta off the first lands back on the original
// dataset's result.
func TestDeltaJobBitIdenticalToColdSubmission(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	parent := submitAndWait(t, s, retainRequest())
	if parent.runState == nil {
		t.Fatal("retain-state job kept no state")
	}

	d1 := deltaAndWait(t, s, parent.ID, DeltaRequest{AddCSV: addOneCSV})
	got := resultPayload(t, d1)
	if got.Delta == nil || got.Delta.Parent != parent.ID {
		t.Fatalf("delta payload counters = %+v, want parent %s", got.Delta, parent.ID)
	}
	if got.Delta.NodesScreened+got.Delta.NodesRevalidated != int64(got.Stats.NodesChecked) {
		t.Fatalf("screened %d + revalidated %d != checked %d",
			got.Delta.NodesScreened, got.Delta.NodesRevalidated, got.Stats.NodesChecked)
	}
	if st := d1.Status(); st.DeltaOf != parent.ID {
		t.Fatalf("status delta_of = %q, want %s", st.DeltaOf, parent.ID)
	}

	// Cold reference: submit the edited dataset as a plain job.
	table, err := incognito.ReadCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	edited, err := incognito.ApplyRowDelta(table, [][]string{{"1/21/76", "Male", "53715", "Flu"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var editedCSV strings.Builder
	if err := edited.WriteCSV(&editedCSV); err != nil {
		t.Fatal(err)
	}
	cold := submitAndWait(t, s, SubmitRequest{CSV: editedCSV.String(), QI: patientsQI, Policy: Policy{K: 2}})
	want := resultPayload(t, cold)
	got.Delta = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta payload diverges from cold submission:\ndelta: %+v\ncold:  %+v", got, want)
	}

	// Chain: a second delta deleting that row again. Deletion removes the
	// FIRST content match (the original row 0, not the appended copy), so
	// the canonical reference is ApplyRowDelta over the edited table, not
	// the original dataset.
	d2 := deltaAndWait(t, s, d1.ID, DeltaRequest{DelCSV: addOneCSV})
	back := resultPayload(t, d2)
	twice, err := incognito.ApplyRowDelta(edited, nil, [][]string{{"1/21/76", "Male", "53715", "Flu"}})
	if err != nil {
		t.Fatal(err)
	}
	var twiceCSV strings.Builder
	if err := twice.WriteCSV(&twiceCSV); err != nil {
		t.Fatal(err)
	}
	cold2 := submitAndWait(t, s, SubmitRequest{CSV: twiceCSV.String(), QI: patientsQI, Policy: Policy{K: 2}})
	want2 := resultPayload(t, cold2)
	back.Delta = nil
	if !reflect.DeepEqual(back, want2) {
		t.Fatalf("chained delta diverges from cold run over the twice-edited dataset:\ngot:  %+v\nwant: %+v", back, want2)
	}
}

// TestDeltaInvalidatesParentCacheEntry: after a delta, re-submitting the
// parent's original request must re-run, not read the stale cached result.
func TestDeltaInvalidatesParentCacheEntry(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	parent := submitAndWait(t, s, retainRequest())
	if s.Cache().Len() != 1 {
		t.Fatalf("cache has %d entries after the parent, want 1", s.Cache().Len())
	}
	// The original request is served from cache before the delta...
	hit, serr := s.Submit(validRequest())
	if serr != nil || !hit.CacheHit {
		t.Fatalf("pre-delta resubmission = %+v (%v), want cache hit", hit, serr)
	}
	deltaAndWait(t, s, parent.ID, DeltaRequest{AddCSV: addOneCSV})
	if s.Cache().Invalidated() != 1 {
		t.Fatalf("cache invalidations = %d, want 1", s.Cache().Invalidated())
	}
	// ...and re-runs after it: the entry under the parent's key is gone
	// (the delta job's own entry remains).
	miss, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	if miss.CacheHit {
		t.Fatal("post-delta resubmission hit the invalidated cache entry")
	}
	waitTerminal(t, s, miss.ID)
}

// TestRetainStateSkipsDedup: a retain-state submission is neither answered
// from the cache nor coalesced — both would skip the run that captures
// state — but its result still feeds the cache.
func TestRetainStateSkipsDedup(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	submitAndWait(t, s, validRequest())
	if s.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", s.Runs())
	}
	j := submitAndWait(t, s, retainRequest())
	if s.Runs() != 2 {
		t.Fatalf("runs = %d after retain-state resubmission, want 2 (must not be served from cache)", s.Runs())
	}
	if j.runState == nil {
		t.Fatal("retain-state job kept no state")
	}
	// Identical plain submission now hits the cache entry the retain job fed.
	hit, serr := s.Submit(validRequest())
	if serr != nil || !hit.CacheHit {
		t.Fatalf("post-retain resubmission = %+v (%v), want cache hit", hit, serr)
	}
}

func TestSubmitDeltaRejections(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	plain := submitAndWait(t, s, validRequest())
	parent := submitAndWait(t, s, retainRequest())

	cases := []struct {
		name   string
		id     string
		req    DeltaRequest
		status int
		want   string
	}{
		{"unknown parent", "job-999999", DeltaRequest{AddCSV: addOneCSV}, 404, "no job"},
		{"no retained state", plain.ID, DeltaRequest{AddCSV: addOneCSV}, 409, "retain_state"},
		{"empty delta", parent.ID, DeltaRequest{}, 400, "empty delta"},
		{"bad header", parent.ID, DeltaRequest{AddCSV: "Zip,Sex\n1,2\n"}, 400, "add_csv"},
		{"bad csv", parent.ID, DeltaRequest{DelCSV: "Birthdate\n\"unterminated\n"}, 400, "del_csv"},
		{"absent deletion", parent.ID, DeltaRequest{DelCSV: "Birthdate,Sex,Zipcode,Disease\n1/1/11,Male,99999,None\n"}, 400, "delete"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, serr := s.SubmitDelta(tc.id, tc.req)
			if serr == nil {
				t.Fatal("accepted, want rejection")
			}
			if serr.status != tc.status || !strings.Contains(serr.msg, tc.want) {
				t.Fatalf("rejection = %d %q, want %d mentioning %q", serr.status, serr.msg, tc.status, tc.want)
			}
		})
	}
}

func TestResolveRetainState(t *testing.T) {
	cfg := &Config{DefaultMemBudget: 1 << 20}
	r, err := cfg.resolve(Policy{K: 2, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	if !r.retainState {
		t.Fatal("retain_state not resolved")
	}
	if r.memBudget != 0 {
		t.Fatalf("memBudget = %d, want 0 (daemon default must be dropped for state capture)", r.memBudget)
	}
	if _, err := cfg.resolve(Policy{K: 2, RetainState: true, Algorithm: "cube"}); err == nil {
		t.Fatal("retain_state accepted for a non-basic algorithm")
	}
	if _, err := cfg.resolve(Policy{K: 2, RetainState: true, MemBudget: "64Mi"}); err == nil {
		t.Fatal("retain_state accepted with an explicit memory budget")
	}
}

// TestDeltaHTTPEndToEnd drives the delta lifecycle over HTTP: submit a
// retain-state parent, POST the delta, poll, read the result with its
// savings counters, and see the incognito_delta_* metrics move.
func TestDeltaHTTPEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestService(t, Config{Workers: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	reqBody, _ := json.Marshal(retainRequest())
	code, body := post("/v1/jobs", string(reqBody))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d %s", code, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, sub.ID)

	deltaBody, _ := json.Marshal(DeltaRequest{AddCSV: addOneCSV})
	code, body = post("/v1/jobs/"+sub.ID+"/delta", string(deltaBody))
	if code != http.StatusAccepted {
		t.Fatalf("POST delta = %d %s", code, body)
	}
	var dsub SubmitResponse
	if err := json.Unmarshal(body, &dsub); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, dsub.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + dsub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d %s", resp.StatusCode, raw)
	}
	var payload ResultPayload
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Delta == nil || payload.Delta.Parent != sub.ID || payload.ReleasedCSV == "" {
		t.Fatalf("delta result payload = %+v", payload.Delta)
	}

	// Malformed body and unknown fields are 400.
	if code, _ := post("/v1/jobs/"+sub.ID+"/delta", "{"); code != http.StatusBadRequest {
		t.Fatalf("bad JSON delta = %d, want 400", code)
	}
	if code, _ := post("/v1/jobs/"+sub.ID+"/delta", `{"surprise":true}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field delta = %d, want 400", code)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, m := range []string{
		"incognito_delta_jobs_total 1",
		"incognito_delta_rows_rescanned_total",
		"incognito_delta_nodes_screened_total",
		"incognito_delta_nodes_revalidated_total",
		"incognito_delta_cache_invalidations_total 1",
	} {
		if !bytes.Contains(metrics, []byte(m)) {
			t.Errorf("metrics missing %q", m)
		}
	}

	// The index advertises the endpoint.
	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	index, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(index, []byte("/v1/jobs/{id}/delta")) {
		t.Errorf("index does not list the delta endpoint:\n%s", index)
	}
}

// TestDeltaJobRefusesEditedHierarchyFile: a delta job binds its parent's
// QI spec again, so a csv: hierarchy file rewritten since the parent ran
// is read anew. When the new file maps a value the table holds to another
// group, the parent's retained state no longer describes the run, and the
// delta job fails with an error naming the attribute.
func TestDeltaJobRefusesEditedHierarchyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zipcode.csv")
	write := func(zip53706 string) {
		t.Helper()
		dim := "Zipcode,Zip1,Zip2\n53715,5371*,537**\n53703,5370*,537**\n53706," + zip53706 + ",537**\n"
		if err := os.WriteFile(path, []byte(dim), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("5370*")
	s := newTestService(t, Config{Workers: 1, AllowFileHierarchies: true})
	parent := submitAndWait(t, s, SubmitRequest{CSV: patientsCSV, QI: "Birthdate=suppress;Sex=round:1;Zipcode=csv:" + path,
		Policy: Policy{K: 2, RetainState: true}})

	write("5371*")
	resp, serr := s.SubmitDelta(parent.ID, DeltaRequest{AddCSV: addOneCSV})
	if serr != nil {
		t.Fatalf("SubmitDelta: %v", serr)
	}
	st := waitTerminal(t, s, resp.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, `"Zipcode"`) {
		t.Fatalf("delta under a rewritten hierarchy file = %s (%q), want failed naming \"Zipcode\"", st.State, st.Error)
	}
}

// TestSubmissionBodyCappedAtCacheBudget: POST /v1/jobs and POST
// /v1/jobs/{id}/delta read at most the result cache's byte budget. A body
// of exactly that size decodes; one byte more is refused with 413, and the
// message names the limit.
func TestSubmissionBodyCappedAtCacheBudget(t *testing.T) {
	const limit = 8 << 10
	s := newTestService(t, Config{Workers: 1, CacheMaxBytes: limit})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	parent := submitAndWait(t, s, retainRequest())
	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/v1/jobs", validRequest()},
		{"/v1/jobs/" + parent.ID + "/delta", DeltaRequest{AddCSV: addOneCSV}},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{limit, limit + 1} {
			padded := append(append([]byte(nil), body...), bytes.Repeat([]byte(" "), size-len(body))...)
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(padded))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case size == limit && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
				t.Errorf("%s with a %d-byte body (the limit): status %d, want it decoded\n%s", tc.path, size, resp.StatusCode, msg)
			case size > limit && (resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "8192-byte limit")):
				t.Errorf("%s with a %d-byte body: status %d, want 413 naming the 8192-byte limit\n%s", tc.path, size, resp.StatusCode, msg)
			}
		}
	}
}
