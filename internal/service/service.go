package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	incognito "incognito"
	"incognito/internal/qispec"
	"incognito/internal/resilience"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// Config sizes the daemon and supplies per-job defaults.
type Config struct {
	// Workers is the job-level worker pool size (>= 1; each job may use
	// further intra-run parallelism per its policy).
	Workers int
	// QueueDepth bounds the jobs waiting behind the running ones;
	// submissions beyond it are rejected with 429 rather than queued
	// without bound.
	QueueDepth int
	// CacheMaxBytes and CacheMaxEntries bound the result cache.
	CacheMaxBytes   int64
	CacheMaxEntries int
	// AllowFileHierarchies permits taxonomy:FILE/csv:FILE hierarchy kinds
	// in request QI specs (off by default: a request must not make the
	// daemon read arbitrary local paths).
	AllowFileHierarchies bool
	// CheckpointDir, when set, gives every Incognito-variant job a
	// checkpoint file dir/<job-id>.ckpt: a job cancelled mid-run (DELETE,
	// timeout, drain deadline) leaves a resumable snapshot behind, and a
	// job interrupted by a crash resumes from it at the next startup.
	CheckpointDir string
	// JournalDir, when set, makes the daemon durable: every accepted job
	// and state transition is appended to a checksummed, fsync'd journal
	// there before it is acknowledged, and startup replays the journal —
	// re-enqueueing interrupted jobs (resuming from CheckpointDir
	// snapshots), tombstoning finished ones, compacting the file, and
	// sweeping orphaned checkpoints. Empty runs the daemon in-memory
	// only, exactly as before.
	JournalDir string
	// DefaultTimeout, DefaultMemBudget and DefaultParallelism apply to
	// jobs whose policy leaves the knob empty.
	DefaultTimeout     time.Duration
	DefaultMemBudget   int64
	DefaultParallelism int
	// DrainTimeout bounds how long Drain waits for in-flight jobs before
	// cancelling their contexts (0 waits forever).
	DrainTimeout time.Duration
	// Registry, when non-nil, receives the service gauges (queue depth,
	// active jobs, cache occupancy and hit ratio, run counters), plus the
	// per-job phase histograms RecordTrace folds in at job completion.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives job lifecycle events and the HTTP
	// access log.
	Logger *slog.Logger
	// TraceJobs sizes the per-job trace flight recorder: every queued job
	// gets a span tree (queue wait → run → phases) served on GET
	// /v1/jobs/{id}/trace, and the finished trees of the most recent
	// TraceJobs jobs are retained. 0 means the default (64); negative
	// disables per-job tracing entirely. Tracing is result-transparent:
	// Solutions, Stats, and the released CSV are byte-identical with it on
	// or off.
	TraceJobs int
}

// Service is the queue, cache, and job table behind the HTTP API.
type Service struct {
	cfg      Config
	cache    *Cache
	traceCap int // normalized Config.TraceJobs; 0 disables tracing

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string        // submission order, for listing
	inflight map[string]*Job // cache key → queued-or-running job
	queue    chan *Job
	draining bool
	// drainClosed marks that Drain already cancelled the queued jobs and
	// closed the queue; draining alone only means submissions are refused
	// (set first, so a drain arriving mid-recovery stops the re-enqueues).
	drainClosed bool
	traceOrder  []string // jobs with a retained trace, oldest first

	// journal is the write-ahead log behind Config.JournalDir; nil when
	// journaling is off. recovering gates submissions while the startup
	// replay runs; recoveryDone closes when it finishes (immediately when
	// journaling is off).
	journal      *Journal
	recovering   atomic.Bool
	recoveryDone chan struct{}
	recovered    atomic.Int64

	wg        sync.WaitGroup
	active    atomic.Int64
	runs      atomic.Int64 // underlying anonymization runs started
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	coalesce  atomic.Int64
	seq       atomic.Int64

	// Delta-job telemetry: completed delta jobs and their cumulative
	// savings counters.
	deltaJobs        atomic.Int64
	deltaRescanned   atomic.Int64
	deltaScreened    atomic.Int64
	deltaRevalidated atomic.Int64

	// testHookBeforeRun, when non-nil, runs on the worker goroutine just
	// before a job's anonymization starts — the seam the concurrency tests
	// use to hold a run in flight deterministically.
	testHookBeforeRun func(*Job)
}

// New builds the service and starts its worker pool. With JournalDir set
// it also opens the write-ahead journal (an unopenable journal is a
// startup error — running non-durable when durability was asked for is
// worse than not starting) and begins replaying it on a goroutine: the
// service is immediately usable for reads but rejects submissions with
// 503 until recovery finishes. Close it with Drain.
func New(cfg Config) (*Service, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	traceCap := cfg.TraceJobs
	switch {
	case traceCap == 0:
		traceCap = 64
	case traceCap < 0:
		traceCap = 0
	}
	s := &Service{
		cfg:          cfg,
		cache:        NewCache(cfg.CacheMaxBytes, cfg.CacheMaxEntries),
		traceCap:     traceCap,
		jobs:         make(map[string]*Job),
		inflight:     make(map[string]*Job),
		queue:        make(chan *Job, cfg.QueueDepth),
		recoveryDone: make(chan struct{}),
	}
	if cfg.JournalDir != "" {
		j, err := OpenJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = j
		s.recovering.Store(true)
	}
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.journal != nil {
		go s.recoverFromJournal()
	} else {
		close(s.recoveryDone)
	}
	return s, nil
}

// registerMetrics exposes the service's live state on the telemetry
// registry, following the repo convention of bridging atomics as
// GaugeFuncs (evaluated at scrape time).
func (s *Service) registerMetrics() {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	reg.GaugeFunc("incognitod_queue_depth", "Jobs waiting in the queue (not yet running).",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("incognitod_queue_capacity", "Bound on jobs waiting in the queue.",
		func() float64 { return float64(cap(s.queue)) })
	reg.GaugeFunc("incognitod_jobs_active", "Jobs currently running on the worker pool.",
		func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("incognitod_jobs_completed", "Jobs finished successfully since start.",
		func() float64 { return float64(s.completed.Load()) })
	reg.GaugeFunc("incognitod_jobs_failed", "Jobs finished with an error since start.",
		func() float64 { return float64(s.failed.Load()) })
	reg.GaugeFunc("incognitod_jobs_cancelled", "Jobs cancelled before completing since start.",
		func() float64 { return float64(s.cancelled.Load()) })
	reg.GaugeFunc("incognitod_runs_total", "Underlying anonymization runs started (deduplicated submissions share one).",
		func() float64 { return float64(s.runs.Load()) })
	reg.GaugeFunc("incognitod_coalesced_total", "Submissions that attached to an identical in-flight job.",
		func() float64 { return float64(s.coalesce.Load()) })
	reg.GaugeFunc("incognitod_cache_entries", "Result-cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("incognitod_cache_bytes", "Result-cache stored payload bytes.",
		func() float64 { return float64(s.cache.Bytes()) })
	reg.GaugeFunc("incognitod_cache_hits", "Result-cache hits since start.",
		func() float64 { return float64(s.cache.Hits()) })
	reg.GaugeFunc("incognitod_cache_misses", "Result-cache misses since start.",
		func() float64 { return float64(s.cache.Misses()) })
	reg.GaugeFunc("incognitod_cache_evictions", "Result-cache entries evicted under the byte/entry budget.",
		func() float64 { return float64(s.cache.Evicted()) })
	reg.GaugeFunc("incognitod_cache_hit_ratio", "hits/(hits+misses) since start, 0 before the first lookup.",
		func() float64 { return s.cache.HitRatio() })
	reg.GaugeFunc("incognito_delta_jobs_total", "Delta jobs completed since start.",
		func() float64 { return float64(s.deltaJobs.Load()) })
	reg.GaugeFunc("incognito_delta_rows_rescanned_total", "Rows re-scanned by delta runs (delta rows plus forced full re-scans).",
		func() float64 { return float64(s.deltaRescanned.Load()) })
	reg.GaugeFunc("incognito_delta_nodes_screened_total", "Lattice nodes delta runs decided from saved records without recounting.",
		func() float64 { return float64(s.deltaScreened.Load()) })
	reg.GaugeFunc("incognito_delta_nodes_revalidated_total", "Lattice nodes delta runs had to recount in full.",
		func() float64 { return float64(s.deltaRevalidated.Load()) })
	reg.GaugeFunc("incognito_delta_cache_invalidations_total", "Parent cache entries invalidated by delta submissions.",
		func() float64 { return float64(s.cache.Invalidated()) })
	reg.GaugeFunc("incognitod_recovered_jobs_total", "Interrupted jobs re-enqueued by startup journal recovery.",
		func() float64 { return float64(s.recovered.Load()) })
	if s.journal != nil {
		reg.GaugeFunc("incognitod_journal_records", "Journal records appended by this process.",
			func() float64 { return float64(s.journal.Records()) })
		reg.GaugeFunc("incognitod_journal_bytes", "Journal file size in bytes.",
			func() float64 { return float64(s.journal.Bytes()) })
		reg.GaugeFunc("incognitod_journal_append_errors_total", "Journal appends that failed (durability degraded).",
			func() float64 { return float64(s.journal.Errs()) })
		reg.GaugeFunc("incognitod_recovering", "1 while startup journal replay is in progress, else 0.",
			func() float64 {
				if s.recovering.Load() {
					return 1
				}
				return 0
			})
	}
}

// journalAccepted appends a job's accepted record; an append failure is
// returned so Submit can refuse the job (acknowledging unjournaled work
// would break the recovery contract).
func (s *Service) journalAccepted(rec journalRecord) error {
	if s.journal == nil {
		return nil
	}
	rec.Type = "accepted"
	if err := s.journal.Append(rec); err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("journal append failed", slog.String("job", rec.Job), slog.String("error", err.Error()))
		}
		return err
	}
	return nil
}

// journalState appends a lifecycle transition. Unlike accepts, a failed
// state append does not fail the job — the work is already underway or
// finished — it degrades durability and says so in the log and the
// append-errors counter.
func (s *Service) journalState(jobID string, st State, errMsg string) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(journalRecord{Type: "state", Job: jobID, State: st, Err: errMsg}); err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("journal append failed", slog.String("job", jobID), slog.String("error", err.Error()))
		}
	}
}

// submitError is a rejection with its HTTP status; retryAfter, when
// positive, tells the client when trying again is worthwhile (it becomes
// the Retry-After header and the retry_after_ms body hint).
type submitError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *submitError) Error() string { return e.msg }

func reject(status int, format string, args ...any) *submitError {
	return &submitError{status: status, msg: fmt.Sprintf(format, args...)}
}

// rejectRetry is reject plus a jittered retry hint in [base, 2·base):
// every rejected client backing off the same fixed amount would reconverge
// on the same instant; the jitter spreads the retry wave.
func rejectRetry(status int, base time.Duration, format string, args ...any) *submitError {
	e := reject(status, format, args...)
	if base > 0 {
		e.retryAfter = base + time.Duration(rand.Int63n(int64(base)))
	}
	return e
}

// jobKey derives the cache identity of a submission. The base is the
// resilience fingerprint (algorithm, k, suppression, lattice heights, row
// count, QI-column hash) — the same identity checkpoints pin — extended
// with what a RESULT additionally depends on and the fingerprint cannot
// see: the full dataset bytes (released views carry non-QI columns), the
// canonical QI spec (two hierarchies of equal height may generalize
// differently), and the minimality criterion (it picks the released
// solution). Parallelism, memory budget and timeout are deliberately
// absent: they are bit-identical-result knobs, so sibling submissions
// differing only there share one cache entry.
func jobKey(fp incognito.Fingerprint, csv, qiSpec, critName string) string {
	data := sha256.Sum256([]byte(csv))
	spec := sha256.Sum256([]byte(qispec.Canonical(qiSpec)))
	return fp.Key() +
		"|data=" + hex.EncodeToString(data[:8]) +
		"|spec=" + hex.EncodeToString(spec[:8]) +
		"|crit=" + critName
}

// Submit validates a request and either answers it from the cache, attaches
// it to an identical in-flight job, or queues a new job. The returned
// *submitError (nil on success) carries the HTTP status for rejections.
func (s *Service) Submit(req SubmitRequest) (*SubmitResponse, *submitError) {
	pol, err := s.cfg.resolve(req.Policy)
	if err != nil {
		return nil, reject(400, "%v", err)
	}
	if strings.TrimSpace(req.CSV) == "" {
		return nil, reject(400, "csv: empty dataset")
	}
	table, err := incognito.ReadCSV(strings.NewReader(req.CSV))
	if err != nil {
		return nil, reject(400, "csv: %v", err)
	}
	qi, err := qispec.ParseQI(req.QI, qispec.Options{AllowFiles: s.cfg.AllowFileHierarchies})
	if err != nil {
		return nil, reject(400, "qi: %v", err)
	}
	// RunFingerprint doubles as the full request validation: it binds the
	// QI against the table exactly like the run itself would, so bad
	// column names or unbindable hierarchies are rejected here with 400,
	// never queued to fail later.
	fp, err := incognito.RunFingerprint(table, qi, incognito.Config{
		K: pol.k, MaxSuppressed: pol.maxSuppress, Algorithm: pol.algorithm,
	})
	if err != nil {
		return nil, reject(400, "%v", err)
	}
	key := jobKey(fp, req.CSV, req.QI, pol.critName)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, rejectRetry(503, 5*time.Second, "daemon is draining, not accepting jobs")
	}
	if s.recovering.Load() {
		return nil, rejectRetry(503, time.Second, "daemon is replaying its job journal, not yet accepting jobs")
	}
	// A retain-state submission must run for real — a cached payload or an
	// in-flight sibling has no state to hand it — so it skips both
	// deduplication layers. Its result still lands in the cache.
	if !pol.retainState {
		if payload, ok := s.cache.Get(key); ok {
			j := s.newJobLocked(key, req.RequestID, table, qi, pol)
			j.cacheHit = true
			j.result = payload
			j.state = StateDone
			j.finished = j.created
			// Born done: one dataset-free accepted record keeps the job in
			// the restart listing. Nothing to recover, so an append failure
			// degrades durability but not this response.
			_ = s.journalAccepted(journalRecord{
				Job: j.ID, RequestID: req.RequestID, CacheHit: true, State: StateDone,
				Policy: &req.Policy,
			})
			s.logJob(j, "served from cache")
			return &SubmitResponse{ID: j.ID, State: StateDone, CacheHit: true}, nil
		}
		if prior := s.inflight[key]; prior != nil {
			prior.mu.Lock()
			prior.coalesced++
			state := prior.state
			prior.mu.Unlock()
			s.coalesce.Add(1)
			s.logJob(prior, "coalesced duplicate submission")
			return &SubmitResponse{ID: prior.ID, State: state, Coalesced: true}, nil
		}
	}
	// Capacity check before the journal write: workers only ever drain the
	// queue, so under s.mu a free slot now is a free slot at the send below
	// — the send cannot block, and a rejected submission was never
	// journaled.
	if len(s.queue) == cap(s.queue) {
		return nil, rejectRetry(429, time.Second, "queue full (%d queued, %d running)", len(s.queue), s.active.Load())
	}
	j := s.newJobLocked(key, req.RequestID, table, qi, pol)
	j.state = StateQueued
	j.progress = telemetry.NewProgress()
	if pol.timeout > 0 {
		// The deadline covers queue wait AND run: a client's timeout is
		// about when it stops caring, not about when a worker got free.
		j.deadline = j.created.Add(pol.timeout)
	}
	if s.traceCap > 0 {
		j.tracer = trace.New()
		j.tracer.SetAttr("job", j.ID)
		if req.RequestID != "" {
			j.tracer.SetAttr("request_id", req.RequestID)
		}
		j.queueSpan = j.tracer.Start("queue_wait")
	}
	// Write-ahead: the accepted record hits the disk before the job is
	// queued or acknowledged. If the journal cannot take it, the job does
	// not exist.
	if err := s.journalAccepted(journalRecord{
		Job: j.ID, CSV: req.CSV, QI: req.QI, Policy: &req.Policy, RequestID: req.RequestID,
	}); err != nil {
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		return nil, rejectRetry(503, time.Second, "journal write failed: %v", err)
	}
	s.queue <- j
	s.inflight[key] = j
	s.logJob(j, "queued")
	return &SubmitResponse{ID: j.ID, State: StateQueued}, nil
}

// SubmitDelta validates a delta request against its parent job and queues
// the incremental re-run. The parent must be done and have retained state
// (policy.retain_state, or itself a delta job). The parent's result-cache
// entry is invalidated — it describes a dataset that no longer exists
// after the edit — and the delta job gets its own cache identity derived
// from the parent's key plus the delta bytes. Delta submissions skip the
// cache and coalescing lookups: each one runs (cheaply — that is the
// point) against the parent's current state.
func (s *Service) SubmitDelta(parentID string, req DeltaRequest) (*SubmitResponse, *submitError) {
	parent, ok := s.Job(parentID)
	if !ok {
		return nil, reject(404, "no job %q", parentID)
	}
	table, state, pstate := parent.deltaBase()
	if pstate != StateDone {
		return nil, reject(409, "job %s is %s; deltas apply to done jobs", parentID, pstate)
	}
	if state == nil {
		return nil, reject(409, "job %s did not retain state (submit it with policy.retain_state, or chain from a delta job)", parentID)
	}
	add, serr := parseDeltaCSV("add_csv", req.AddCSV, table)
	if serr != nil {
		return nil, serr
	}
	del, serr := parseDeltaCSV("del_csv", req.DelCSV, table)
	if serr != nil {
		return nil, serr
	}
	if len(add)+len(del) == 0 {
		return nil, reject(400, "empty delta: add_csv and del_csv contain no rows")
	}
	// Validate the edit applies (every deletion matches a live row) here at
	// submission, rather than queueing a job doomed to fail.
	if _, err := incognito.ApplyRowDelta(table, add, del); err != nil {
		return nil, reject(400, "%v", err)
	}
	sum := sha256.Sum256([]byte(req.AddCSV + "\x00" + req.DelCSV))
	key := parent.key + "|delta=" + hex.EncodeToString(sum[:8])

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, rejectRetry(503, 5*time.Second, "daemon is draining, not accepting jobs")
	}
	if s.recovering.Load() {
		return nil, rejectRetry(503, time.Second, "daemon is replaying its job journal, not yet accepting jobs")
	}
	if len(s.queue) == cap(s.queue) {
		return nil, rejectRetry(429, time.Second, "queue full (%d queued, %d running)", len(s.queue), s.active.Load())
	}
	j := s.newJobLocked(key, req.RequestID, table, parent.qi, parent.pol)
	j.deltaParent = parent.ID
	j.deltaState = state
	j.deltaAdd, j.deltaDel = add, del
	j.state = StateQueued
	j.progress = telemetry.NewProgress()
	if parent.pol.timeout > 0 {
		j.deadline = j.created.Add(parent.pol.timeout)
	}
	if s.traceCap > 0 {
		j.tracer = trace.New()
		j.tracer.SetAttr("job", j.ID)
		j.tracer.SetAttr("delta_of", parent.ID)
		if req.RequestID != "" {
			j.tracer.SetAttr("request_id", req.RequestID)
		}
		j.queueSpan = j.tracer.Start("queue_wait")
	}
	// Delta jobs are journaled for the record — status and parentage
	// survive a restart — but they are not recoverable (the parent's
	// retained state lives only in memory), so replay marks an interrupted
	// one failed rather than re-running it.
	if err := s.journalAccepted(journalRecord{
		Job: j.ID, RequestID: req.RequestID, DeltaOf: parent.ID,
		AddCSV: req.AddCSV, DelCSV: req.DelCSV,
	}); err != nil {
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		return nil, rejectRetry(503, time.Second, "journal write failed: %v", err)
	}
	s.queue <- j
	s.inflight[key] = j
	// The parent's cached result describes the pre-edit dataset; a client
	// re-submitting the original request must re-run, not read stale bytes.
	if s.cache.Remove(parent.key) {
		s.logJob(parent, "cache entry invalidated by delta")
	}
	s.logJob(j, "queued delta of "+parent.ID)
	return &SubmitResponse{ID: j.ID, State: StateQueued}, nil
}

// parseDeltaCSV parses one delta CSV (empty → no rows) and checks its
// header equals the parent dataset's columns, by position.
func parseDeltaCSV(field, csv string, table *incognito.Table) ([][]string, *submitError) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	t, err := incognito.ReadCSV(strings.NewReader(csv))
	if err != nil {
		return nil, reject(400, "%s: %v", field, err)
	}
	want, got := table.Columns(), t.Columns()
	if len(got) != len(want) {
		return nil, reject(400, "%s: header has %d columns, dataset has %d", field, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return nil, reject(400, "%s: header column %d is %q, dataset has %q", field, i, got[i], want[i])
		}
	}
	return t.Rows(), nil
}

// newJobLocked allocates and registers a job record; s.mu is held.
func (s *Service) newJobLocked(key, requestID string, table *incognito.Table, qi []incognito.QI, pol resolved) *Job {
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq.Add(1)),
		key:       key,
		requestID: requestID,
		table:     table,
		qi:        qi,
		pol:       pol,
		created:   time.Now(),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j
}

// Job returns a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel cancels a job by ID; false when unknown or already terminal.
func (s *Service) Cancel(id string) (found, cancelled bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	acted, finalized := j.cancelJob("cancelled by request")
	if finalized {
		s.cancelled.Add(1)
		s.journalState(j.ID, StateCancelled, "cancelled by request")
		// The job never reached a worker; its queue-wait trace is all
		// there will ever be, so seal it here.
		s.finishJobTrace(j)
	}
	if acted {
		s.logJob(j, "cancel requested")
	}
	return true, acted
}

// Draining reports whether Drain has begun.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Runs returns how many underlying anonymization runs were started — the
// number deduplication keeps below the submission count.
func (s *Service) Runs() int64 { return s.runs.Load() }

// Cache exposes the result cache (telemetry and tests).
func (s *Service) Cache() *Cache { return s.cache }

// worker drains the queue until it closes, skipping jobs cancelled while
// queued. A panic inside a run is contained to the job: runJob recovers,
// the worker keeps serving.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if j.take() {
			s.journalState(j.ID, StateRunning, "")
			s.runJob(j)
		}
		s.mu.Lock()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
		s.mu.Unlock()
	}
}

// runJob executes one job with panic isolation, timeout and memory-budget
// enforcement, then publishes the rendered result to the cache. The job's
// trace — queue wait, run phases — is finalized into the flight recorder
// on every exit path, including panics, and always *before* the terminal
// job state is published: a client that polls until done and immediately
// fetches the trace must see the sealed document, never a partial live
// snapshot.
func (s *Service) runJob(j *Job) {
	s.active.Add(1)
	defer s.active.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			// AnonymizeContext already converts worker-goroutine panics to
			// errors; this guard catches panics on the job's own goroutine
			// (request-shaped data hitting a library invariant), so one
			// poisoned job cannot take the worker down. The trace was
			// sealed on the way here — finishJobTrace was deferred later,
			// so it ran first.
			s.failed.Add(1)
			msg := resilience.AsPanicError("job", r).Error()
			j.fail(msg)
			s.journalState(j.ID, StateFailed, msg)
			s.logJob(j, "panicked")
		}
	}()
	defer s.finishJobTrace(j)

	ctx, cancel := context.WithCancel(context.Background())
	if !j.deadline.IsZero() {
		// The deadline was pinned at submission, so queue wait spends it:
		// a job whose budget ran out while waiting fails here without
		// burning a worker on a run the client has given up on.
		if !time.Now().Before(j.deadline) {
			cancel()
			s.failed.Add(1)
			msg := fmt.Sprintf("timed out: deadline passed after %s in queue",
				time.Since(j.created).Round(time.Millisecond))
			j.fail(msg)
			s.journalState(j.ID, StateFailed, msg)
			s.logJob(j, "timed out in queue")
			return
		}
		ctx, cancel = context.WithDeadline(context.Background(), j.deadline)
	}
	j.setCancel(cancel)
	defer cancel()

	if s.testHookBeforeRun != nil {
		s.testHookBeforeRun(j)
	}

	// The traced section runs in its own function so its deferred run-span
	// end completes before the terminal transition it returns is applied.
	publish := s.execute(ctx, j)
	s.finishJobTrace(j)
	publish()
}

// execute runs the engine for one job inside its run span and returns the
// terminal transition to apply once the trace is sealed.
func (s *Service) execute(ctx context.Context, j *Job) (publish func()) {
	runSpan := j.startRunSpan()
	defer runSpan.End()

	cfg := incognito.Config{
		K:                 j.pol.k,
		MaxSuppressed:     j.pol.maxSuppress,
		Algorithm:         j.pol.algorithm,
		MaterializeBudget: j.pol.matBudget,
		Parallelism:       j.pol.parallelism,
		Budget:            incognito.NewMemoryBudget(j.pol.memBudget),
		RetainState:       j.pol.retainState,
		Progress:          j.progress,
		Tracer:            j.jobTracer(),
		ParentSpan:        runSpan,
	}
	if s.cfg.CheckpointDir != "" {
		switch j.pol.algorithm {
		case incognito.BasicIncognito, incognito.SuperRootsIncognito,
			incognito.CubeIncognito, incognito.MaterializedIncognito:
			cfg.Checkpoint = incognito.NewCheckpointer(filepath.Join(s.cfg.CheckpointDir, j.ID+".ckpt"))
		}
	}
	// A recovered in-flight job resumes from the snapshot its previous life
	// left behind; the engine re-verifies the snapshot's fingerprint, and
	// the completed result is byte-identical to an uninterrupted run.
	if j.resume != nil {
		cfg.Resume = j.resume
	}
	fail := func(msg, event string) func() {
		return func() {
			s.failed.Add(1)
			j.fail(msg)
			s.journalState(j.ID, StateFailed, msg)
			s.logJob(j, event)
		}
	}
	if j.deltaState != nil {
		return s.executeDelta(ctx, j, cfg, fail)
	}
	s.runs.Add(1)
	s.logJob(j, "running")
	res, err := incognito.AnonymizeContext(ctx, j.table, j.qi, cfg)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			return func() {
				s.cancelled.Add(1)
				j.cancelled(err.Error())
				s.journalState(j.ID, StateCancelled, err.Error())
				s.logJob(j, "cancelled mid-run")
			}
		case errors.Is(err, context.DeadlineExceeded):
			return fail("timed out: "+err.Error(), "timed out")
		default:
			return fail(err.Error(), "failed")
		}
	}
	if res.Len() == 0 {
		return fail(fmt.Sprintf("no %d-anonymous full-domain generalization exists (table too small for k?)", j.pol.k), "failed")
	}
	payload, err := renderResult(res, j.pol)
	if err != nil {
		return fail(err.Error(), "failed")
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fail(err.Error(), "failed")
	}
	return func() {
		if j.pol.retainState {
			j.completeWithState(raw, nil, res.State())
		} else {
			j.complete(raw)
		}
		s.cache.Put(j.key, raw)
		s.completed.Add(1)
		s.journalState(j.ID, StateDone, "")
		s.logJob(j, "done")
	}
}

// executeDelta runs a delta job — incognito.AnonymizeDelta against the
// parent's retained state — with the same error taxonomy as a cold run.
// The rendered payload carries the savings counters, and the job retains
// its follow-on state and edited table so further deltas chain off it.
func (s *Service) executeDelta(ctx context.Context, j *Job, cfg incognito.Config, fail func(msg, event string) func()) func() {
	// Delta runs reject budgets; resolve keeps them off for every
	// state-retaining lineage, so the cold run's cfg passes as built.
	s.runs.Add(1)
	s.logJob(j, "running delta of "+j.deltaParent)
	dres, err := incognito.AnonymizeDelta(ctx, j.table, j.qi, cfg, j.deltaState, j.deltaAdd, j.deltaDel)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			return func() {
				s.cancelled.Add(1)
				j.cancelled(err.Error())
				s.journalState(j.ID, StateCancelled, err.Error())
				s.logJob(j, "cancelled mid-run")
			}
		case errors.Is(err, context.DeadlineExceeded):
			return fail("timed out: "+err.Error(), "timed out")
		default:
			return fail(err.Error(), "failed")
		}
	}
	if dres.Len() == 0 {
		return fail(fmt.Sprintf("no %d-anonymous full-domain generalization exists after the delta", j.pol.k), "failed")
	}
	payload, err := renderResult(dres.Result, j.pol)
	if err != nil {
		return fail(err.Error(), "failed")
	}
	payload.Delta = &DeltaStatsPayload{
		Parent:           j.deltaParent,
		RowsRescanned:    dres.Counters.RowsRescanned,
		NodesScreened:    dres.Counters.NodesScreened,
		NodesRevalidated: dres.Counters.NodesRevalidated,
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fail(err.Error(), "failed")
	}
	return func() {
		j.completeWithState(raw, dres.Table, dres.State())
		s.cache.Put(j.key, raw)
		s.completed.Add(1)
		s.journalState(j.ID, StateDone, "")
		s.deltaJobs.Add(1)
		s.deltaRescanned.Add(dres.Counters.RowsRescanned)
		s.deltaScreened.Add(dres.Counters.NodesScreened)
		s.deltaRevalidated.Add(dres.Counters.NodesRevalidated)
		s.logJob(j, "done")
	}
}

// finishJobTrace seals a job's trace: the span tree is exported once, its
// phase durations and counters are folded into the registry, and the
// document enters the bounded flight recorder (evicting the oldest
// retained trace past Config.TraceJobs). Safe to call on jobs that were
// never traced, and idempotent — the tracer handle is consumed.
func (s *Service) finishJobTrace(j *Job) {
	j.mu.Lock()
	tr := j.tracer
	j.tracer = nil
	j.mu.Unlock()
	if tr == nil {
		return
	}
	doc := tr.Export()
	telemetry.RecordTrace(s.cfg.Registry, doc)
	s.mu.Lock()
	j.mu.Lock()
	j.traceDoc = doc
	j.mu.Unlock()
	s.traceOrder = append(s.traceOrder, j.ID)
	for len(s.traceOrder) > s.traceCap {
		if old := s.jobs[s.traceOrder[0]]; old != nil {
			old.mu.Lock()
			old.traceDoc = nil
			old.mu.Unlock()
		}
		s.traceOrder = s.traceOrder[1:]
	}
	s.mu.Unlock()
}

// Drain gracefully shuts the pool down: new submissions are rejected,
// queued jobs are cancelled (with CheckpointDir, a cancelled running job
// leaves a resumable snapshot), in-flight jobs get up to DrainTimeout to
// finish before their contexts are cancelled, and Drain returns when every
// worker has exited. A drain that lands mid-recovery first sets the
// draining flag (so recovery stops re-enqueueing and journals the
// remainder cancelled), then waits for the replay to finish — the journal
// stays consistent either way. Idempotent; concurrent calls all block
// until done.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Recovery checks the draining flag under s.mu before each enqueue;
	// once it finishes, the queue's content is final and closing it is safe.
	<-s.recoveryDone

	s.mu.Lock()
	already := s.drainClosed
	s.drainClosed = true
	var queued []*Job
	if !already {
		for _, id := range s.order {
			if j := s.jobs[id]; j != nil {
				j.mu.Lock()
				isQueued := j.state == StateQueued
				j.mu.Unlock()
				if isQueued {
					queued = append(queued, j)
				}
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()
	for _, j := range queued {
		if _, finalized := j.cancelJob("daemon shutting down before the job started"); finalized {
			s.cancelled.Add(1)
			s.journalState(j.ID, StateCancelled, "daemon shutting down before the job started")
			s.finishJobTrace(j)
			s.logJob(j, "cancelled by drain")
		}
	}

	if s.cfg.DrainTimeout > 0 {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			return
		case <-time.After(s.cfg.DrainTimeout):
			// Past the deadline: cancel whatever is still running. With a
			// checkpoint dir the interrupted jobs leave resumable snapshots.
			for _, j := range s.Jobs() {
				if acted, _ := j.cancelJob("drain deadline exceeded"); acted {
					s.logJob(j, "cancelled past drain deadline")
				}
			}
		}
	}
	s.wg.Wait()
}

// Counts returns (completed, failed, cancelled) — the drain summary.
func (s *Service) Counts() (completed, failed, cancelled int64) {
	return s.completed.Load(), s.failed.Load(), s.cancelled.Load()
}

func (s *Service) logJob(j *Job, msg string) {
	if s.cfg.Logger == nil {
		return
	}
	attrs := []any{slog.String("id", j.ID)}
	if j.requestID != "" {
		attrs = append(attrs, slog.String("request_id", j.requestID))
	}
	s.cfg.Logger.Info("job "+msg, attrs...)
}
