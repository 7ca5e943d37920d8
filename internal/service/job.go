package service

import (
	"context"
	"strings"
	"sync"
	"time"

	incognito "incognito"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// State is a job's lifecycle position. Transitions only move forward:
// queued → running → done|failed, or queued|running → cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submission's lifecycle record. The parsed table, bound QI and
// resolved policy are carried from submission (where validation happens)
// to the worker that runs them; the result is kept as marshaled
// ResultPayload bytes, shared with the cache.
type Job struct {
	ID        string
	key       string // cache identity; see jobKey
	requestID string // X-Request-Id of the submission that created the job

	table *incognito.Table
	qi    []incognito.QI
	pol   resolved

	// Delta-job inputs: the parent job's ID, the state snapshot the run
	// screens against, and the rows to append/delete. deltaState is non-nil
	// exactly on delta jobs.
	deltaParent string
	deltaState  *incognito.RunState
	deltaAdd    [][]string
	deltaDel    [][]string

	progress *telemetry.Progress

	// deadline, when non-zero, is the job's absolute completion deadline —
	// pinned at submission, so queue wait spends it too.
	deadline time.Time
	// recovered marks a job re-enqueued by startup journal replay; resume,
	// when non-nil, is the checkpoint snapshot its previous life left
	// behind.
	recovered bool
	resume    *incognito.Snapshot

	mu        sync.Mutex
	tracer    *trace.Tracer   // live while the job is queued or running
	queueSpan *trace.Span     // open from submission until the worker takes the job
	traceDoc  *trace.Document // sealed trace, while retained by the flight recorder
	state     State
	err       string
	created   time.Time
	started   time.Time
	finished  time.Time
	cacheHit  bool
	coalesced int64
	cancel    context.CancelFunc
	// cancelReq closes the take→setCancel window: a DELETE landing after
	// the worker took the job but before it installed the run context is
	// remembered here and honored by setCancel.
	cancelReq bool
	result    []byte
	// resultGone marks a done job replayed from the journal: the state
	// survived the restart but the rendered payload did not (results live
	// in the in-memory cache), so GET /result answers 410 Gone.
	resultGone bool
	// runState is the retained incremental state of a finished
	// retain-state or delta job — what a later POST /v1/jobs/{id}/delta
	// runs against. For delta jobs, table is rewritten to the edited table
	// at completion so further deltas chain off the right base.
	runState *incognito.RunState
}

// take transitions queued → running; false when the job was cancelled
// while waiting in the queue (the worker skips it). Taking the job closes
// its queue-wait span.
func (j *Job) take() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.queueSpan.End()
	j.queueSpan = nil
	return true
}

// jobTracer returns the job's live tracer (nil when tracing is disabled
// or the trace is already sealed — both fully functional no-ops).
func (j *Job) jobTracer() *trace.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// startRunSpan opens the span covering the whole anonymization run; the
// library's phase spans nest under it via Config.ParentSpan. Nil (a
// no-op span) when tracing is disabled.
func (j *Job) startRunSpan() *trace.Span {
	return j.jobTracer().Start("run")
}

// TraceDocument returns the job's span tree: the sealed document for a
// finished job still in the flight recorder, or a live export (unended
// spans run to "now") while the job is queued or running. Nil when
// tracing is disabled or the trace has been evicted.
func (j *Job) TraceDocument() *trace.Document {
	j.mu.Lock()
	doc, tr := j.traceDoc, j.tracer
	j.mu.Unlock()
	if doc != nil {
		return doc
	}
	return tr.Export()
}

// setCancel installs the running job's context cancel so DELETE (and the
// drain deadline) can stop it. If cancellation was requested between take
// and here, the installed context is cancelled immediately.
func (j *Job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	requested := j.cancelReq
	if !requested {
		j.cancel = cancel
	}
	j.mu.Unlock()
	if requested {
		cancel()
	}
}

// finishLocked seals a terminal state; the caller holds j.mu.
func (j *Job) finishLocked(s State, errMsg string) {
	j.state = s
	j.err = errMsg
	j.finished = time.Now()
	j.cancel = nil
}

// complete marks the job done with its rendered result.
func (j *Job) complete(payload []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.result = payload
	j.finishLocked(StateDone, "")
}

// completeWithState marks the job done and retains its incremental state;
// a non-nil table replaces the job's table (a delta job's further deltas
// must chain from the edited table, not the one it was submitted with).
func (j *Job) completeWithState(payload []byte, table *incognito.Table, st *incognito.RunState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if table != nil {
		j.table = table
	}
	j.runState = st
	j.result = payload
	j.finishLocked(StateDone, "")
}

// deltaBase snapshots what a delta submission needs from its parent: the
// table the edit applies to, the retained state, and the lifecycle state.
func (j *Job) deltaBase() (*incognito.Table, *incognito.RunState, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table, j.runState, j.state
}

// fail marks the job failed with the run's error.
func (j *Job) fail(errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(StateFailed, errMsg)
}

// cancelJob requests cancellation: a queued job is finalized on the spot
// (the worker will skip it), a running one has its context cancelled and
// reaches StateCancelled when the run returns. acted is false when the job
// was already terminal; finalized is true when the job was still queued
// and is cancelled right here (the caller accounts for it — running jobs
// are accounted for where the run returns).
func (j *Job) cancelJob(reason string) (acted, finalized bool) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false, false
	}
	if j.state == StateQueued {
		j.finishLocked(StateCancelled, reason)
		j.mu.Unlock()
		return true, true
	}
	j.cancelReq = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true, false
}

// cancelled marks a running job's terminal state after its run returned
// with a cancellation error.
func (j *Job) cancelled(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(StateCancelled, reason)
}

// Status renders the job for the API, sampling the live progress atomics
// when the job is running.
func (j *Job) Status() StatusResponse {
	j.mu.Lock()
	resp := StatusResponse{
		ID:        j.ID,
		RequestID: j.requestID,
		State:     j.state,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		Error:     j.err,
		Created:   j.created,
		DeltaOf:   j.deltaParent,
		Recovered: j.recovered,
	}
	started, finished := j.started, j.finished
	running := j.state == StateRunning
	j.mu.Unlock()
	if !started.IsZero() {
		s := started
		resp.Started = &s
	}
	if !finished.IsZero() {
		f := finished
		resp.Finished = &f
	}
	if running && j.progress != nil {
		resp.Progress = progressStatus(j.progress, started)
	}
	return resp
}

// progressStatus converts a Progress snapshot into the wire form, with the
// same pct/ETA extrapolation the CLI's periodic reporter uses.
func progressStatus(p *telemetry.Progress, started time.Time) *ProgressStatus {
	s := p.Snapshot()
	elapsed := time.Since(started)
	out := &ProgressStatus{
		Phase:         s.Phase,
		NodesVisited:  s.NodesVisited,
		NodesTotal:    s.NodesTotal,
		TuplesScanned: s.TuplesScanned,
		TableScans:    s.TableScans,
		Rollups:       s.Rollups,
		ElapsedMS:     elapsed.Milliseconds(),
	}
	if s.NodesTotal > 0 && s.NodesVisited > 0 && s.NodesVisited <= s.NodesTotal {
		frac := float64(s.NodesVisited) / float64(s.NodesTotal)
		out.Pct = 100 * frac
		out.ETAMS = time.Duration(float64(elapsed) * (1 - frac) / frac).Milliseconds()
	}
	return out
}

// renderResult builds the cacheable result payload from a finished run.
func renderResult(res *incognito.Result, pol resolved) (ResultPayload, error) {
	sols := res.Solutions()
	out := ResultPayload{
		Solutions: make([]SolutionPayload, len(sols)),
		Complete:  res.Complete(),
		Stats: StatsPayload{
			NodesChecked: res.Stats().NodesChecked,
			NodesMarked:  res.Stats().NodesMarked,
			Candidates:   res.Stats().Candidates,
			TableScans:   res.Stats().TableScans,
			Rollups:      res.Stats().Rollups,
		},
	}
	for i, s := range sols {
		out.Solutions[i] = solutionPayload(s)
	}
	best, _ := res.Best(pol.criterion)
	out.Best = solutionPayload(best)
	view, err := best.Apply()
	if err != nil {
		return out, err
	}
	var csv strings.Builder
	if err := view.WriteCSV(&csv); err != nil {
		return out, err
	}
	out.ReleasedCSV = csv.String()
	return out, nil
}

func solutionPayload(s incognito.Solution) SolutionPayload {
	return SolutionPayload{
		Levels:    s.Levels(),
		Names:     s.LevelNames(),
		Height:    s.Height(),
		Precision: s.Precision(),
	}
}
