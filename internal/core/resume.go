package core

// This file implements checkpoint/resume as a replay. A snapshot holds the
// pass/fail verdict of every node the run had checked, keyed by the node's
// attribute subset and levels, never a frequency set. A resumed run starts
// again at the first iteration: candidate generation is deterministic, and
// the breadth-first search answers each recorded node from its verdict in
// the same branch that answers a delta run's screened nodes (see
// searchComponent). That branch spends the counters a real check would
// have spent, and the verdicts alone decide marks, queue pushes and
// survivors, so Solutions and Stats equal an uninterrupted run's by
// construction.

import (
	"fmt"
	"sync"

	"incognito/internal/lattice"
	"incognito/internal/resilience"
)

// replay is a run's verdict bookkeeping: the verdicts of the snapshot it
// resumes, looked up by node, and, with checkpointing on, the log of every
// verdict known so far, which each save writes out. A resumed run's log
// starts from the snapshot's verdicts, so a second interruption loses none
// of them. A nil *replay (neither checkpointing nor resuming) no-ops.
type replay struct {
	known map[string]bool // resumed verdicts by lattice.EncodeKey; nil when not resuming
	check *resilience.Checkpointer
	fp    resilience.Fingerprint

	mu  sync.Mutex // guards log; family searches record concurrently
	log []resilience.Verdict
	// resumed counts the log's verdicts taken from the resumed snapshot.
	// Until the run logs one of its own, a save would only rewrite that
	// snapshot, so the replayed prefix of a resumed run saves nothing.
	resumed int
	// saveMu serializes saves, so every save carries at least the verdicts
	// of the save before it.
	saveMu sync.Mutex
}

// newReplay sets up the run's replay from Input.Check and Input.Resume. A
// snapshot is refused when its fingerprint does not match this run, or when
// it holds a verdict for a node outside this run's lattice.
func newReplay(in *Input, label string) (*replay, error) {
	if in.Check == nil && in.Resume == nil {
		return nil, nil
	}
	rp := &replay{check: in.Check, fp: in.Fingerprint(label)}
	snap := in.Resume
	if snap == nil {
		return rp, nil
	}
	if !snap.Fingerprint.Equal(rp.fp) {
		return nil, fmt.Errorf("core: resume snapshot was written by a different run (snapshot: %s, k=%d, %d rows; this run: %s, k=%d, %d rows)",
			snap.Fingerprint.Algorithm, snap.Fingerprint.K, snap.Fingerprint.Rows, rp.fp.Algorithm, rp.fp.K, rp.fp.Rows)
	}
	if err := snap.CheckLattice(rp.fp.Heights); err != nil {
		return nil, err
	}
	rp.known = make(map[string]bool, len(snap.Verdicts))
	for _, v := range snap.Verdicts {
		rp.known[lattice.EncodeKey(v.Dims, v.Levels)] = v.Pass
	}
	if rp.check != nil {
		rp.log = append(rp.log, snap.Verdicts...)
		rp.resumed = len(rp.log)
	}
	return rp, nil
}

// verdict returns the resumed snapshot's verdict for n, if it has one.
func (rp *replay) verdict(n *lattice.Node) (pass, ok bool) {
	if rp == nil || rp.known == nil {
		return false, false
	}
	pass, ok = rp.known[n.Key()]
	return pass, ok
}

// record logs a verdict the run decided (checked or screened) for the
// next save.
func (rp *replay) record(n *lattice.Node, pass bool) {
	if rp == nil || rp.check == nil {
		return
	}
	rp.mu.Lock()
	rp.log = append(rp.log, resilience.Verdict{Dims: n.Dims, Levels: n.Levels, Pass: pass})
	rp.mu.Unlock()
}

// save writes every verdict logged so far as a snapshot taken at the named
// boundary. Logged verdicts are never rewritten, so the snapshot shares the
// log's prefix instead of copying it.
func (rp *replay) save(boundary string) error {
	if rp == nil || rp.check == nil {
		return nil
	}
	rp.saveMu.Lock()
	defer rp.saveMu.Unlock()
	rp.mu.Lock()
	verdicts := rp.log[:len(rp.log):len(rp.log)]
	rp.mu.Unlock()
	if rp.known != nil && len(verdicts) == rp.resumed {
		return nil
	}
	return rp.check.Save(&resilience.Snapshot{Fingerprint: rp.fp, Boundary: boundary, Verdicts: verdicts})
}

// degradedErr wraps resilience.ErrDegraded with the budget numbers and
// records the abort on the accountant (the telemetry counter CLIs export).
func degradedErr(in *Input) error {
	in.Budget.NoteAbort()
	return fmt.Errorf("core: %w (estimated %d live bytes against a %d-byte budget)",
		resilience.ErrDegraded, in.Budget.Used(), in.Budget.Budget())
}
