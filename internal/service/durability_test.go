package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	incognito "incognito"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
)

// seedJournal writes records into dir's journal through the production
// append path and closes the file, leaving a journal for a fresh service
// to replay.
func seedJournal(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func acceptedRecord(id string) journalRecord {
	pol := Policy{K: 2}
	return journalRecord{
		Type: "accepted", Job: id,
		CSV: patientsCSV, QI: patientsQI, Policy: &pol, RequestID: "req-" + id,
	}
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateRunning},
		journalRecord{Type: "state", Job: "job-000001", State: StateFailed, Err: "boom"},
	)
	recs, maxSeq, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || maxSeq != 3 {
		t.Fatalf("replayed %d records, maxSeq %d, want 3 and 3", len(recs), maxSeq)
	}
	if recs[0].CSV != patientsCSV || recs[0].Policy == nil || recs[0].Policy.K != 2 {
		t.Errorf("accepted record did not round-trip: %+v", recs[0])
	}
	order, jobs := foldReplay(recs)
	if len(order) != 1 || order[0] != "job-000001" {
		t.Fatalf("folded order = %v", order)
	}
	if rj := jobs["job-000001"]; rj.state != StateFailed || rj.errMsg != "boom" {
		t.Errorf("folded to %s/%q, want failed/boom", rj.state, rj.errMsg)
	}
}

// TestJournalTornWriteProperty: a journal of three acknowledged jobs (one
// done, one interrupted mid-run, one still queued) is damaged at every byte
// offset, once by truncating it there and once by flipping that byte.
// Every damaged copy recovers the same way:
//   - ReplayJournal returns exactly the records before the first damaged
//     line and truncates the file there, and the file accepts appends
//     again;
//   - a journaled service started on the damaged copy re-enqueues exactly
//     that prefix's unfinished jobs and runs each of them once;
//   - it re-runs no job whose terminal record survived, and no job from
//     outside the prefix appears.
func TestJournalTornWriteProperty(t *testing.T) {
	tiny := func(id, value string) journalRecord {
		pol := Policy{K: 2}
		return journalRecord{Type: "accepted", Job: id, CSV: "A\n" + value + "\n" + value + "\n", QI: "A=suppress", Policy: &pol}
	}
	src := t.TempDir()
	seedJournal(t, src,
		tiny("job-000001", "x"),
		tiny("job-000002", "y"),
		journalRecord{Type: "state", Job: "job-000002", State: StateRunning},
		tiny("job-000003", "z"),
		journalRecord{Type: "state", Job: "job-000001", State: StateDone},
	)
	intact, err := os.ReadFile(filepath.Join(src, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	var ends []int // ends[i] is the offset just past line i's newline
	for off := 0; off < len(intact); {
		n := bytes.IndexByte(intact[off:], '\n') + 1
		rec, err := decodeRecord(intact[off : off+n-1])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		off += n
		ends = append(ends, off)
	}
	jobIDs := []string{"job-000001", "job-000002", "job-000003"}
	appended := make(map[int]bool)
	// Each case rewrites the journal in these two directories; the service
	// of the case before has drained by then.
	replayDir, serviceDir := t.TempDir(), t.TempDir()

	check := func(damaged []byte, lines int, what string) {
		prefixEnd := 0
		if lines > 0 {
			prefixEnd = ends[lines-1]
		}
		// Replay alone.
		path := filepath.Join(replayDir, journalName)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReplayJournal(replayDir)
		if err != nil {
			t.Fatalf("%s: replay: %v", what, err)
		}
		if !reflect.DeepEqual(got, recs[:lines:lines]) && !(lines == 0 && len(got) == 0) {
			t.Fatalf("%s: replay returned %d records, want the %d before the damage", what, len(got), lines)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(prefixEnd) {
			t.Fatalf("%s: journal is %d bytes after replay, want truncated to %d", what, st.Size(), prefixEnd)
		}
		if !appended[lines] {
			// The truncated file is the same for every damage within one
			// line, so one append per intact prefix covers them all.
			appended[lines] = true
			seedJournal(t, replayDir, journalRecord{Type: "state", Job: "job-000001", State: StateFailed})
			if again, _, err := ReplayJournal(replayDir); err != nil || len(again) != lines+1 {
				t.Fatalf("%s: replay after an append returned %d records (err %v), want %d", what, len(again), err, lines+1)
			}
		}

		// A service started on another damaged copy.
		if err := os.WriteFile(filepath.Join(serviceDir, journalName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		state := make(map[string]State) // each job's last journaled state in the prefix
		for _, rec := range recs[:lines] {
			if rec.Type == "accepted" {
				state[rec.Job] = StateQueued
			} else {
				state[rec.Job] = rec.State
			}
		}
		s, err := New(Config{Workers: 1, JournalDir: serviceDir, TraceJobs: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		s.WaitRecovered()
		var unfinished []*Job
		for _, id := range jobIDs {
			j, ok := s.Job(id)
			st, inPrefix := state[id]
			switch {
			case ok != inPrefix:
				t.Fatalf("%s: job %s present after restart = %v, in the intact prefix = %v", what, id, ok, inPrefix)
			case !ok:
			case st.Terminal():
				if got := j.Status(); got.State != st || got.Recovered {
					t.Fatalf("%s: terminal job %s came back %s (recovered %v), want its journaled %s", what, id, got.State, got.Recovered, st)
				}
			default:
				unfinished = append(unfinished, j)
			}
		}
		if got := s.RecoveredJobs(); got != int64(len(unfinished)) {
			t.Fatalf("%s: %d jobs re-enqueued, want the prefix's %d unfinished ones", what, got, len(unfinished))
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, j := range unfinished {
			for !j.Status().State.Terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("%s: re-enqueued job %s never finished", what, j.ID)
				}
				time.Sleep(50 * time.Microsecond)
			}
			if got := j.Status(); got.State != StateDone || !got.Recovered {
				t.Fatalf("%s: re-enqueued job %s finished %s (recovered %v, err %q), want done", what, j.ID, got.State, got.Recovered, got.Error)
			}
		}
		if got := s.runs.Load(); got != int64(len(unfinished)) {
			t.Fatalf("%s: %d runs after the restart, want one per unfinished job (%d)", what, got, len(unfinished))
		}
	}

	for off := range intact {
		whole := 0 // lines that end at or before off
		for whole < len(ends) && ends[whole] <= off {
			whole++
		}
		check(intact[:off], whole, fmt.Sprintf("truncated at byte %d", off))
		flipped := append([]byte(nil), intact...)
		flipped[off] ^= 0x01
		check(flipped, whole, fmt.Sprintf("byte %d flipped", off))
	}
}

func TestJournalCompactionStripsTerminalDatasets(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateDone},
		acceptedRecord("job-000002"), // still queued: keeps its dataset
	)
	recs, _, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	order, jobs := foldReplay(recs)
	n, err := CompactJournal(dir, order, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("compacted to %d records, want 2", n)
	}
	recs, maxSeq, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || maxSeq != 2 {
		t.Fatalf("re-replay: %d records, maxSeq %d", len(recs), maxSeq)
	}
	if recs[0].CSV != "" || recs[0].State != StateDone {
		t.Errorf("terminal job kept its dataset or lost its state: %+v", recs[0])
	}
	if recs[1].CSV != patientsCSV || recs[1].State != StateQueued {
		t.Errorf("live job lost its dataset or state: CSV %d bytes, state %s", len(recs[1].CSV), recs[1].State)
	}
}

// An interrupted queued job comes back: revalidated, re-enqueued under its
// original ID, run to completion with a fetchable result.
func TestRecoveryRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir, acceptedRecord("job-000001"))
	s := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s.WaitRecovered()
	if got := s.RecoveredJobs(); got != 1 {
		t.Fatalf("RecoveredJobs() = %d, want 1", got)
	}
	st := waitTerminal(t, s, "job-000001")
	if st.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", st.State, st.Error)
	}
	if !st.Recovered {
		t.Error("status does not mark the job recovered")
	}
	if st.RequestID != "req-job-000001" {
		t.Errorf("request ID %q did not survive the restart", st.RequestID)
	}
	j, _ := s.Job("job-000001")
	j.mu.Lock()
	hasResult := len(j.result) > 0
	j.mu.Unlock()
	if !hasResult {
		t.Error("recovered job re-ran but has no result payload")
	}
	// Fresh submissions continue the ID sequence past the recovered job.
	resp, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.ID == "job-000001" {
		t.Error("fresh submission reused the recovered job's ID")
	}
}

// A journal written before partitioned jobs and the kernel switch were
// retired still replays: an accepted record whose policy carries the old
// "partitions" or "kernel" field decodes (replay does not refuse unknown
// fields), runs in-process, and releases the same bytes as a plain job.
func TestRecoveryReplaysRetiredPartitionsPolicy(t *testing.T) {
	body, err := json.Marshal(acceptedRecord("job-000001"))
	if err != nil {
		t.Fatal(err)
	}
	released := func(s *Service, id string) string {
		t.Helper()
		j, _ := s.Job(id)
		j.mu.Lock()
		defer j.mu.Unlock()
		var payload ResultPayload
		if err := json.Unmarshal(j.result, &payload); err != nil {
			t.Fatalf("%s result: %v", id, err)
		}
		return payload.ReleasedCSV
	}
	plain := newTestService(t, Config{Workers: 1})
	resp, serr := plain.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	waitTerminal(t, plain, resp.ID)
	want := released(plain, resp.ID)

	for _, field := range []string{`"partitions":2`, `"kernel":"sparse"`} {
		old := bytes.Replace(body, []byte(`"policy":{"k":2}`), []byte(`"policy":{"k":2,`+field+`}`), 1)
		if bytes.Equal(old, body) {
			t.Fatalf("accepted record has no plain k=2 policy to rewrite: %s", body)
		}
		sum := sha256.Sum256(old)
		line := hex.EncodeToString(sum[:8]) + " " + string(old) + "\n"
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}

		s := newTestService(t, Config{Workers: 1, JournalDir: dir})
		s.WaitRecovered()
		st := waitTerminal(t, s, "job-000001")
		if st.State != StateDone || !st.Recovered {
			t.Fatalf("%s: old-format job finished %s (recovered %v, err %q), want done and recovered", field, st.State, st.Recovered, st.Error)
		}
		if got := released(s, "job-000001"); want == "" || got != want {
			t.Errorf("%s: replayed job released\n%s\nwant the plain job's\n%s", field, got, want)
		}
	}
}

// Finished jobs come back as tombstones: state and error survive, result
// bytes do not — GET result answers 410 Gone for done, 409 for failed.
func TestRecoveryTombstonesFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateDone},
		acceptedRecord("job-000002"),
		journalRecord{Type: "state", Job: "job-000002", State: StateFailed, Err: "boom"},
	)
	s := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s.WaitRecovered()
	if got := s.RecoveredJobs(); got != 0 {
		t.Fatalf("RecoveredJobs() = %d, want 0 (both jobs were terminal)", got)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/job-000001/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("result of restart-survived done job = %d, want 410:\n%s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "resubmit") {
		t.Errorf("410 body does not tell the client what to do:\n%s", body)
	}
	failed, ok := s.Job("job-000002")
	if !ok {
		t.Fatal("failed job's tombstone missing")
	}
	if st := failed.Status(); st.State != StateFailed || st.Error != "boom" {
		t.Errorf("failed tombstone = %s/%q, want failed/boom", st.State, st.Error)
	}
}

// A delta job interrupted mid-flight cannot re-run — its parent's retained
// state lived only in memory — so replay marks it failed, parentage intact.
func TestRecoveryFailsInterruptedDelta(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateDone},
		journalRecord{Type: "accepted", Job: "job-000002", DeltaOf: "job-000001",
			AddCSV: "Birthdate,Sex,Zipcode,Disease\n3/3/76,Male,53715,Flu\n"},
		journalRecord{Type: "state", Job: "job-000002", State: StateRunning},
	)
	s := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s.WaitRecovered()
	st := mustJobStatus(t, s, "job-000002")
	if st.State != StateFailed || !strings.Contains(st.Error, "job-000001") ||
		!strings.Contains(st.Error, "lost") {
		t.Fatalf("interrupted delta = %s/%q, want failed with a parent-state-lost error", st.State, st.Error)
	}
	if st.DeltaOf != "job-000001" {
		t.Errorf("delta parentage lost: DeltaOf = %q", st.DeltaOf)
	}
}

// A journal record that no longer validates (here: no policy at all) must
// tombstone as failed, not crash recovery or reach a worker.
func TestRecoveryFailsUnvalidatableRecord(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir, journalRecord{Type: "accepted", Job: "job-000001", CSV: patientsCSV, QI: patientsQI})
	s := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s.WaitRecovered()
	st := mustJobStatus(t, s, "job-000001")
	if st.State != StateFailed || !strings.Contains(st.Error, "policy") {
		t.Fatalf("policy-less record recovered as %s/%q, want failed", st.State, st.Error)
	}
}

func mustJobStatus(t *testing.T, s *Service, id string) StatusResponse {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s missing after recovery", id)
	}
	return j.Status()
}

// A job journaled as running resumes from the checkpoint its previous life
// left behind, and the finished result is byte-identical to a run that was
// never interrupted.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	// Reference: an uninterrupted run through a plain service.
	ref := newTestService(t, Config{Workers: 1})
	resp, serr := ref.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitTerminal(t, ref, resp.ID); st.State != StateDone {
		t.Fatalf("reference run finished %s (%s)", st.State, st.Error)
	}
	refJob, _ := ref.Job(resp.ID)
	refJob.mu.Lock()
	want := string(refJob.result)
	refJob.mu.Unlock()

	// Manufacture the crash: run the same inputs with a checkpointer whose
	// AfterSave cancels the context, exactly like a kill at a save boundary.
	jdir, cdir := t.TempDir(), t.TempDir()
	table, err := incognito.ReadCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	qi := mustQI(t)
	ckptPath := filepath.Join(cdir, "job-000001.ckpt")
	ck := incognito.NewCheckpointer(ckptPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck.AfterSave = func(*resilience.Snapshot) { cancel() }
	if _, err := incognito.AnonymizeContext(ctx, table, qi, incognito.Config{K: 2, Checkpoint: ck}); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: err = %v, want context.Canceled at the first save", err)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	seedJournal(t, jdir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateRunning},
	)
	s := newTestService(t, Config{Workers: 1, JournalDir: jdir, CheckpointDir: cdir})
	s.WaitRecovered()
	j, ok := s.Job("job-000001")
	if !ok {
		t.Fatal("interrupted job not re-enqueued")
	}
	if j.resume == nil {
		t.Fatal("recovered running job did not load its checkpoint snapshot")
	}
	if st := waitTerminal(t, s, "job-000001"); st.State != StateDone {
		t.Fatalf("resumed job finished %s (%s)", st.State, st.Error)
	}
	j.mu.Lock()
	got := string(j.result)
	j.mu.Unlock()
	if got != want {
		t.Errorf("resumed result differs from the uninterrupted run:\nresumed:  %.120s\nexpected: %.120s", got, want)
	}
}

// A daemon upgraded mid-job finds a checkpoint in the previous build's
// format: a job journaled as running with a version-1 snapshot logs that
// the checkpoint is unreadable, re-runs from scratch, and still finishes
// with the uninterrupted run's result bytes.
func TestRecoveryRerunsOnVersionOneCheckpoint(t *testing.T) {
	ref := newTestService(t, Config{Workers: 1})
	resp, serr := ref.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitTerminal(t, ref, resp.ID); st.State != StateDone {
		t.Fatalf("reference run finished %s (%s)", st.State, st.Error)
	}
	refJob, _ := ref.Job(resp.ID)
	refJob.mu.Lock()
	want := string(refJob.result)
	refJob.mu.Unlock()

	jdir, cdir := t.TempDir(), t.TempDir()
	payload := `{"fingerprint":{"algorithm":"Basic Incognito","heights":[2,1,2],"k":2,"max_suppress":0,"rows":6,"table_hash":1},` +
		`"boundary":"iteration","seq":1,"iter":1,"history":[[{"d":[0],"l":[1]}]],"stats":{"nodes_checked":5}}`
	sum := sha256.Sum256([]byte(payload))
	env := `{"version":1,"checksum":"sha256:` + hex.EncodeToString(sum[:]) + `","payload":` + payload + `}`
	if err := os.WriteFile(filepath.Join(cdir, "job-000001.ckpt"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	seedJournal(t, jdir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateRunning},
	)
	logBuf := &syncBuffer{}
	logger, err := telemetry.NewLogger(logBuf, "json", true)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1, JournalDir: jdir, CheckpointDir: cdir, Logger: logger})
	s.WaitRecovered()
	if log := logBuf.String(); !strings.Contains(log, "checkpoint unreadable; re-running from scratch") || !strings.Contains(log, "format version 1") {
		t.Errorf("recovery did not log the unreadable version-1 checkpoint:\n%s", log)
	}
	j, ok := s.Job("job-000001")
	if !ok {
		t.Fatal("interrupted job not re-enqueued")
	}
	if j.resume != nil {
		t.Fatal("recovered job resumes from a version-1 snapshot")
	}
	if st := waitTerminal(t, s, "job-000001"); st.State != StateDone {
		t.Fatalf("re-run job finished %s (%s)", st.State, st.Error)
	}
	j.mu.Lock()
	got := string(j.result)
	j.mu.Unlock()
	if got != want {
		t.Errorf("re-run result differs from the uninterrupted run:\nre-run:   %.120s\nexpected: %.120s", got, want)
	}
}

// Startup sweeps the checkpoints crashed runs left behind that the
// journal does not claim.
func TestRecoverySweepsOrphans(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	stale := filepath.Join(cdir, "job-000009.ckpt")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1, JournalDir: jdir, CheckpointDir: cdir})
	s.WaitRecovered()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale checkpoint survived the sweep (stat err: %v)", err)
	}
}

// The deadline is pinned at submission, so queue wait spends it: a job
// whose budget expires before a worker frees up fails without running.
func TestDeadlineExpiresInQueue(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}
	blocker, serr := s.Submit(validRequest())
	if serr != nil {
		t.Fatal(serr)
	}
	<-entered
	req := validRequest()
	req.Policy.K = 3 // distinct cache identity: must queue, not coalesce
	req.Policy.Timeout = "10ms"
	starved, serr := s.Submit(req)
	if serr != nil {
		t.Fatal(serr)
	}
	time.Sleep(20 * time.Millisecond) // let the deadline lapse while queued
	close(release)
	st := waitTerminal(t, s, starved.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "in queue") {
		t.Fatalf("starved job = %s/%q, want failed with an in-queue timeout", st.State, st.Error)
	}
	if st := waitTerminal(t, s, blocker.ID); st.State != StateDone {
		t.Fatalf("blocker finished %s (%s)", st.State, st.Error)
	}
}

// 429 and transient 503s carry a jittered retry hint — Retry-After header
// in whole seconds, exact milliseconds in the body.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}
	submit := func(k int) (*SubmitResponse, *submitError) {
		req := validRequest()
		req.Policy.K = k
		return s.Submit(req)
	}
	if _, serr := submit(2); serr != nil {
		t.Fatal(serr)
	}
	<-entered
	if _, serr := submit(3); serr != nil {
		t.Fatal(serr)
	}
	_, serr := submit(4)
	if serr == nil || serr.status != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %+v, want 429", serr)
	}
	if serr.retryAfter < time.Second || serr.retryAfter >= 2*time.Second {
		t.Errorf("retry hint %s outside the jitter window [1s, 2s)", serr.retryAfter)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	overflow := validRequest()
	overflow.Policy.K = 4 // must reach the capacity check, not dedup
	payload, err := json.Marshal(overflow)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP overflow submission = %d:\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" && ra != "2" {
		t.Errorf("Retry-After header = %q, want 1 or 2 (seconds, rounded up)", ra)
	}
	if !strings.Contains(string(body), `"retry_after_ms"`) {
		t.Errorf("429 body missing retry_after_ms hint:\n%s", body)
	}
}

// While the journal replays, the daemon is alive but not ready: /healthz
// 200, /readyz 503, submissions 503 with a retry hint.
func TestNotReadyWhileRecovering(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	s.recovering.Store(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz during replay = %d, want 200 (the process is alive)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during replay = %d, want 503", code)
	}
	_, serr := s.Submit(validRequest())
	if serr == nil || serr.status != http.StatusServiceUnavailable {
		t.Fatalf("submission during replay: %+v, want 503", serr)
	}
	if serr.retryAfter <= 0 {
		t.Error("recovering rejection carries no retry hint")
	}
	s.recovering.Store(false)
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after replay = %d, want 200", code)
	}
}

// S3: a delta queued when the drain lands is cancelled cleanly — parentage
// intact, parent's cache entry already invalidated, and after a restart the
// journal replays it as cancelled, not failed or dangling.
func TestDeltaQueuedAtDrainCancelsCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.WaitRecovered()
	req := validRequest()
	req.Policy.RetainState = true
	parent, serr := s.Submit(req)
	if serr != nil {
		t.Fatal(serr)
	}
	if st := waitTerminal(t, s, parent.ID); st.State != StateDone {
		t.Fatalf("parent finished %s (%s)", st.State, st.Error)
	}

	// Hold the worker on a filler job so the delta stays queued.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookBeforeRun = func(*Job) {
		once.Do(func() { close(entered) })
		<-release
	}
	filler := validRequest()
	filler.Policy.K = 3
	if _, serr := s.Submit(filler); serr != nil {
		t.Fatal(serr)
	}
	<-entered
	delta, serr := s.SubmitDelta(parent.ID, DeltaRequest{
		AddCSV: "Birthdate,Sex,Zipcode,Disease\n3/3/76,Male,53715,Flu\n",
	})
	if serr != nil {
		t.Fatal(serr)
	}
	parentJob, _ := s.Job(parent.ID)
	if _, hit := s.cache.Get(parentJob.key); hit {
		t.Error("parent's cache entry survived the delta submission")
	}
	close(release)
	s.Drain()
	st := mustJobStatus(t, s, delta.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued delta after drain = %s (%s), want cancelled", st.State, st.Error)
	}
	if st.DeltaOf != parent.ID {
		t.Errorf("drain-cancelled delta lost its parentage: DeltaOf = %q", st.DeltaOf)
	}

	// Restart on the same journal: the delta replays as the cancelled
	// tombstone it is — not re-marked failed, no dangling parent reference.
	s2 := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s2.WaitRecovered()
	st2 := mustJobStatus(t, s2, delta.ID)
	if st2.State != StateCancelled || st2.DeltaOf != parent.ID {
		t.Errorf("replayed delta tombstone = %s, delta_of %q; want cancelled, %q", st2.State, st2.DeltaOf, parent.ID)
	}
	if st2 := mustJobStatus(t, s2, parent.ID); st2.State != StateDone {
		t.Errorf("replayed parent tombstone = %s, want done", st2.State)
	}
	if s2.RecoveredJobs() != 0 {
		t.Errorf("RecoveredJobs() = %d after replaying only terminal jobs", s2.RecoveredJobs())
	}
}

// S3: a parent that never retained usable state (evicted by restart) turns
// a queued-at-crash delta into a clean failure, and a fresh delta against
// the tombstoned parent is refused up front.
func TestDeltaAgainstRestartedParentRefused(t *testing.T) {
	dir := t.TempDir()
	seedJournal(t, dir,
		acceptedRecord("job-000001"),
		journalRecord{Type: "state", Job: "job-000001", State: StateDone},
	)
	s := newTestService(t, Config{Workers: 1, JournalDir: dir})
	s.WaitRecovered()
	_, serr := s.SubmitDelta("job-000001", DeltaRequest{
		AddCSV: "Birthdate,Sex,Zipcode,Disease\n3/3/76,Male,53715,Flu\n",
	})
	if serr == nil || serr.status != http.StatusConflict {
		t.Fatalf("delta against a restart tombstone: %+v, want 409", serr)
	}
	if !strings.Contains(serr.msg, "retain") {
		t.Errorf("409 does not explain the missing retained state: %q", serr.msg)
	}
}
