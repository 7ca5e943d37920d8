package resilience

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// SnapshotVersion is the checkpoint format version; Load rejects snapshots
// written by an incompatible format.
const SnapshotVersion = 1

// NodeKey identifies a lattice node representation-independently: the QI
// attribute subset and the per-attribute levels. Node IDs are deliberately
// absent — they are replayed deterministically on resume.
type NodeKey struct {
	Dims   []int `json:"d"`
	Levels []int `json:"l"`
}

// FamilyState is the completed search of one family (attribute subset) of
// the in-progress iteration: which of its candidates failed the k-anonymity
// check, and the work counters the search spent. Survivors are everything
// else, and frequency sets are recomputed by rollup on resume.
type FamilyState struct {
	Dims   []int            `json:"dims"`
	Failed []NodeKey        `json:"failed"`
	Stats  map[string]int64 `json:"stats"`
}

// Outcomes of one processed node of the breadth-first search.
const (
	OutcomePassed = "passed" // checked, k-anonymous
	OutcomeFailed = "failed" // checked, not k-anonymous
	OutcomeMarked = "marked" // skipped via the generalization property
)

// NodeOutcome is what the breadth-first search concluded about one
// processed node.
type NodeOutcome struct {
	Key     NodeKey `json:"k"`
	Outcome string  `json:"o"` // OutcomePassed, OutcomeFailed or OutcomeMarked
}

// Frontier is the breadth-first state of the in-progress iteration on the
// sequential search path, snapshotted at a level boundary: the processed
// nodes with their outcomes, in processing order. Everything else — queue
// contents, marks, rollup parents, retained frequency sets — is derived
// deterministically from them on resume.
type Frontier struct {
	Processed []NodeOutcome `json:"processed"`
}

// Fingerprint pins a snapshot to the exact problem instance that produced
// it; resuming against a different table, quasi-identifier, k, threshold,
// or algorithm is rejected.
type Fingerprint struct {
	Algorithm   string `json:"algorithm"`
	Heights     []int  `json:"heights"`
	K           int64  `json:"k"`
	MaxSuppress int64  `json:"max_suppress"`
	Rows        int    `json:"rows"`
	TableHash   uint64 `json:"table_hash"`
}

// Equal reports whether two fingerprints describe the same instance.
func (f Fingerprint) Equal(other Fingerprint) bool {
	if f.Algorithm != other.Algorithm || f.K != other.K || f.MaxSuppress != other.MaxSuppress ||
		f.Rows != other.Rows || f.TableHash != other.TableHash || len(f.Heights) != len(other.Heights) {
		return false
	}
	for i := range f.Heights {
		if f.Heights[i] != other.Heights[i] {
			return false
		}
	}
	return true
}

// Key renders the fingerprint as a compact stable string, the form cache
// maps and log lines want. Two fingerprints are Equal exactly when their
// Keys are equal: every identity field is encoded, heights positionally.
func (f Fingerprint) Key() string {
	var b strings.Builder
	b.WriteString(f.Algorithm)
	fmt.Fprintf(&b, "|k=%d|s=%d|rows=%d|table=%016x|heights=", f.K, f.MaxSuppress, f.Rows, f.TableHash)
	for i, h := range f.Heights {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", h)
	}
	return b.String()
}

// Snapshot is one checkpoint of the Incognito outer loop. Iter is the
// number of completed subset-size iterations; History[i] holds the
// survivors of iteration i+1, so resume replays candidate generation —
// which is deterministic, including node IDs — without touching the table.
// At most one of Families and Frontier describes partial progress inside
// iteration Iter+1: Families on the parallel per-family path, Frontier on
// the sequential whole-graph path.
type Snapshot struct {
	Fingerprint Fingerprint      `json:"fingerprint"`
	Boundary    string           `json:"boundary"` // "iteration", "family" or "level"
	Seq         int64            `json:"seq"`      // save sequence number within the run
	Iter        int              `json:"iter"`
	History     [][]NodeKey      `json:"history"`
	Stats       map[string]int64 `json:"stats"` // accumulated through iteration Iter
	Families    []FamilyState    `json:"families,omitempty"`
	Frontier    *Frontier        `json:"frontier,omitempty"`
}

// envelope is the on-disk framing: the format version, a checksum of the
// payload bytes, and the payload itself.
type envelope struct {
	Version  int             `json:"version"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

func checksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// writeAtomic replaces path with data: it writes a temp file named by
// pattern in the same directory, fsyncs it and renames it over path, so a
// crash mid-write leaves any previous file intact.
func writeAtomic(path, pattern string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Checkpointer serializes snapshots to one file with atomic replace
// semantics (write to a temp file in the same directory, fsync, rename), so
// a crash mid-save leaves the previous snapshot intact. Safe for concurrent
// Save calls (parallel family workers checkpoint as they finish).
type Checkpointer struct {
	path string
	mu   sync.Mutex
	seq  atomic.Int64
	size atomic.Int64

	// AfterSave, when non-nil, runs after each successful save with the
	// snapshot just written — the hook the kill-and-resume tests use to
	// interrupt a run at an exact checkpoint boundary.
	AfterSave func(*Snapshot)
}

// NewCheckpointer returns a checkpointer writing to path. An empty path
// yields nil — the disabled checkpointer, on which every method no-ops.
func NewCheckpointer(path string) *Checkpointer {
	if path == "" {
		return nil
	}
	return &Checkpointer{path: path}
}

// Path returns the snapshot file path ("" when disabled).
func (c *Checkpointer) Path() string {
	if c == nil {
		return ""
	}
	return c.path
}

// Saves returns how many snapshots were written.
func (c *Checkpointer) Saves() int64 {
	if c == nil {
		return 0
	}
	return c.seq.Load()
}

// LastSize returns the byte size of the most recent snapshot file.
func (c *Checkpointer) LastSize() int64 {
	if c == nil {
		return 0
	}
	return c.size.Load()
}

// Save atomically replaces the snapshot file with s. The snapshot's Seq is
// stamped with the save sequence number.
func (c *Checkpointer) Save(s *Snapshot) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Seq = c.seq.Load() + 1
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	env, err := json.Marshal(envelope{Version: SnapshotVersion, Checksum: checksum(payload), Payload: payload})
	if err != nil {
		return fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	if err := writeAtomic(c.path, ".ckpt-*", env); err != nil {
		return fmt.Errorf("resilience: writing checkpoint: %w", err)
	}
	c.seq.Add(1)
	c.size.Store(int64(len(env)))
	if c.AfterSave != nil {
		c.AfterSave(s)
	}
	return nil
}

// Clear removes the snapshot file — called when a run completes, so a stale
// checkpoint cannot be resumed against an already-finished run.
func (c *Checkpointer) Clear() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Remove(c.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resilience: clearing checkpoint: %w", err)
	}
	return nil
}

// Load reads, verifies (version and checksum) and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading checkpoint: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("resilience: corrupt checkpoint %s: %w", path, err)
	}
	if env.Version != SnapshotVersion {
		return nil, fmt.Errorf("resilience: checkpoint %s has format version %d, this build reads %d", path, env.Version, SnapshotVersion)
	}
	if got := checksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("resilience: checkpoint %s failed checksum verification (have %s, recorded %s)", path, got, env.Checksum)
	}
	var s Snapshot
	if err := json.Unmarshal(env.Payload, &s); err != nil {
		return nil, fmt.Errorf("resilience: corrupt checkpoint %s: %w", path, err)
	}
	return &s, nil
}
