package service

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	incognito "incognito"
	"incognito/internal/qispec"
	"incognito/internal/telemetry"
	"incognito/internal/trace"
)

// Recovery is the startup half of the durability story: replay the
// journal, rebuild the job table, re-enqueue every job the crash
// interrupted — resuming in-flight ones from their per-job checkpoint so
// the finished result is byte-identical to an uninterrupted run — then
// compact the journal and sweep orphaned files. It runs on its own
// goroutine so the HTTP listener can come up immediately and report
// not-ready (/readyz 503, submissions 503 + Retry-After) while it works.

// Recovering reports whether startup recovery is still replaying the
// journal. The service accepts no submissions until it finishes.
func (s *Service) Recovering() bool { return s.recovering.Load() }

// RecoveredJobs returns how many interrupted jobs this process re-enqueued
// at startup.
func (s *Service) RecoveredJobs() int64 { return s.recovered.Load() }

// WaitRecovered blocks until startup recovery has finished (immediately
// when journaling is off).
func (s *Service) WaitRecovered() { <-s.recoveryDone }

// recoverFromJournal replays the journal into the job table. Terminal
// jobs come back as tombstones (status and error survive the restart;
// result bytes do not — GET result answers 410 Gone). Queued and running
// jobs are re-validated and re-enqueued; a running job whose checkpoint
// snapshot survives resumes from it. Delta jobs cannot be recovered — the
// parent's retained state lived only in memory — so interrupted ones are
// journaled failed. Always ends by marking the service ready.
func (s *Service) recoverFromJournal() {
	defer func() {
		s.recovering.Store(false)
		close(s.recoveryDone)
	}()
	recs, _, err := ReplayJournal(s.cfg.JournalDir)
	if err != nil {
		s.logRecovery("journal replay failed; starting with an empty job table", "error", err.Error())
		s.sweepOrphans(nil)
		return
	}
	order, folded := foldReplay(recs)

	// Fold forward before compacting: interrupted delta jobs become failed
	// (their parent state is gone), so the compacted journal already
	// records the truth and a second crash replays it verbatim.
	for _, id := range order {
		rj := folded[id]
		if rj.accepted.DeltaOf != "" && !rj.state.Terminal() {
			rj.state = StateFailed
			rj.errMsg = fmt.Sprintf("parent %s retained state was lost at daemon restart", rj.accepted.DeltaOf)
		}
		if rj.accepted.CacheHit && !rj.state.Terminal() {
			rj.state = StateDone // born done; the transition record just never made it
		}
	}
	if n, err := CompactJournal(s.cfg.JournalDir, order, folded); err != nil {
		s.logRecovery("journal compaction failed; appending to the uncompacted file", "error", err.Error())
	} else if err := s.journal.Reopen(); err != nil {
		// The open handle points at the pre-compaction inode now unlinked by
		// the rename; appending there loses records silently. Surface it loud.
		s.logRecovery("journal reopen after compaction failed; durability degraded", "error", err.Error())
	} else {
		s.journal.SeatSeq(int64(n))
	}

	claimed := make(map[string]bool) // checkpoint basenames still owned by live jobs
	var maxID int64
	for _, id := range order {
		var n int64
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		rj := folded[id]
		if rj.state.Terminal() {
			s.installTombstone(id, rj)
			continue
		}
		s.requeueRecovered(id, rj, claimed)
	}
	// Job IDs continue after the highest replayed one: a recovered job and
	// a fresh submission must never collide on ID or checkpoint path.
	// Submissions are rejected until recovery finishes, so a plain store
	// cannot race a newJobLocked increment.
	if maxID > s.seq.Load() {
		s.seq.Store(maxID)
	}
	s.sweepOrphans(claimed)
	s.logRecovery(fmt.Sprintf("recovery complete: %d journaled jobs, %d re-enqueued", len(order), s.recovered.Load()))
}

// installTombstone registers a terminal job's journal record as a job
// without a result: state, error, parentage, and request ID survive the
// restart; the rendered payload does not (results live in the in-memory
// cache), so GET /result on a recovered done job answers 410 Gone.
func (s *Service) installTombstone(id string, rj *replayedJob) {
	j := &Job{
		ID:          id,
		requestID:   rj.accepted.RequestID,
		deltaParent: rj.accepted.DeltaOf,
		created:     rj.accepted.Time,
		state:       rj.state,
		err:         rj.errMsg,
		finished:    rj.accepted.Time,
		cacheHit:    rj.accepted.CacheHit,
		resultGone:  rj.state == StateDone,
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
}

// requeueRecovered re-validates one interrupted job from its journal
// record and puts it back on the queue under its original ID. Validation
// runs exactly like Submit's — the daemon's config may have changed
// across the restart (file hierarchies disallowed, for instance), and a
// job that no longer validates is journaled failed rather than crashing a
// worker later.
func (s *Service) requeueRecovered(id string, rj *replayedJob, claimed map[string]bool) {
	fail := func(msg string) {
		rj.state, rj.errMsg = StateFailed, msg
		s.installTombstone(id, rj)
		s.journalState(id, StateFailed, msg)
		s.logRecovery("recovered job failed revalidation", "job", id, "error", msg)
	}
	var pol resolved
	var err error
	if rj.accepted.Policy == nil {
		fail("journal record has no policy")
		return
	}
	if pol, err = s.cfg.resolve(*rj.accepted.Policy); err != nil {
		fail(fmt.Sprintf("policy no longer accepted after restart: %v", err))
		return
	}
	table, err := incognito.ReadCSV(strings.NewReader(rj.accepted.CSV))
	if err != nil {
		fail(fmt.Sprintf("journaled dataset: %v", err))
		return
	}
	qi, err := qispec.ParseQI(rj.accepted.QI, qispec.Options{AllowFiles: s.cfg.AllowFileHierarchies})
	if err != nil {
		fail(fmt.Sprintf("journaled qi spec no longer accepted after restart: %v", err))
		return
	}
	fp, err := incognito.RunFingerprint(table, qi, incognito.Config{
		K: pol.k, MaxSuppressed: pol.maxSuppress, Algorithm: pol.algorithm,
	})
	if err != nil {
		fail(fmt.Sprintf("journaled job no longer validates: %v", err))
		return
	}

	j := &Job{
		ID:        id,
		key:       jobKey(fp, rj.accepted.CSV, rj.accepted.QI, pol.critName),
		requestID: rj.accepted.RequestID,
		table:     table,
		qi:        qi,
		pol:       pol,
		created:   time.Now(),
		state:     StateQueued,
		recovered: true,
		progress:  telemetry.NewProgress(),
	}
	if pol.timeout > 0 {
		// The deadline clock restarts: the job's wall-time budget should
		// cover compute, not the daemon's downtime.
		j.deadline = j.created.Add(pol.timeout)
	}
	if s.traceCap > 0 {
		j.tracer = trace.New()
		j.tracer.SetAttr("job", j.ID)
		j.tracer.SetAttr("recovered", true)
		j.queueSpan = j.tracer.Start("queue_wait")
	}
	// A job journaled as running may have left a checkpoint; resuming from
	// it completes the run bit-identically to an uninterrupted one (the
	// snapshot's fingerprint is re-verified against this table inside the
	// engine). Its absence just means a cold re-run — same bytes, more work
	// — and so does a snapshot this build cannot read, such as one an
	// older build wrote in an earlier format before the daemon was upgraded.
	if rj.state == StateRunning && s.cfg.CheckpointDir != "" {
		path := filepath.Join(s.cfg.CheckpointDir, id+".ckpt")
		if snap, err := incognito.LoadCheckpoint(path); err == nil {
			j.resume = snap
			s.logRecovery("resuming from checkpoint", "job", id, "checkpoint", path)
		} else if !os.IsNotExist(err) {
			s.logRecovery("checkpoint unreadable; re-running from scratch", "job", id, "error", err.Error())
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		rj.state, rj.errMsg = StateCancelled, "daemon shut down during recovery"
		s.installTombstone(id, rj)
		s.journalState(id, StateCancelled, rj.errMsg)
		return
	}
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		fail(fmt.Sprintf("queue full after restart (%d recovered jobs already waiting)", cap(s.queue)))
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.inflight[j.key] = j
	s.queue <- j
	s.mu.Unlock()
	claimed[id+".ckpt"] = true
	s.recovered.Add(1)
	s.logJob(j, "re-enqueued by recovery")
}

// sweepOrphans removes checkpoint snapshots crashed runs left behind for
// jobs the replayed journal does not bring back. Every removal is logged.
func (s *Service) sweepOrphans(claimed map[string]bool) {
	if dir := s.cfg.CheckpointDir; dir != "" {
		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			s.logRecovery("orphan sweep: checkpoint dir unreadable", "error", err.Error())
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".ckpt") || claimed[name] {
				continue
			}
			path := filepath.Join(dir, name)
			if err := os.Remove(path); err != nil {
				s.logRecovery("orphan sweep: remove failed", "path", path, "error", err.Error())
			} else {
				s.logRecovery("orphan sweep: removed stale checkpoint", "path", path)
			}
		}
	}
}

func (s *Service) logRecovery(msg string, attrs ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("recovery: "+msg, attrs...)
	}
}
