package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// SnapshotVersion is the checkpoint format version; Load rejects snapshots
// written in any other version, naming both.
const SnapshotVersion = 2

// Verdict is the k-anonymity check outcome of one lattice node: the QI
// attribute subset, the per-attribute levels, and whether the node passed.
// Node IDs are deliberately absent: a resumed run regenerates its candidate
// graphs and looks verdicts up by (Dims, Levels).
type Verdict struct {
	Dims   []int `json:"d"`
	Levels []int `json:"l"`
	Pass   bool  `json:"p"`
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

// Snapshot is one checkpoint of an Incognito search: the verdict of every
// node the run had checked when it saved, in no particular order. Nodes
// marked by the generalization property are not recorded, because the
// verdicts determine them. A resumed run starts again at the first
// iteration and answers each recorded node from its verdict instead of
// checking it, so it makes the same decisions, spends the same Stats and
// finds the same Solutions as an uninterrupted run.
type Snapshot struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Boundary    string      `json:"boundary"` // "iteration", "family" or "level"
	Seq         int64       `json:"seq"`      // save sequence number within the run
	Verdicts    []Verdict   `json:"verdicts"`
}

// CheckLattice refuses a snapshot holding a verdict for a node outside the
// generalization lattice of the given hierarchy heights: no attributes, an
// attribute position out of range, positions not strictly increasing, a
// level outside [0, height], or unequal Dims and Levels lengths. The error
// names the first such node.
func (s *Snapshot) CheckLattice(heights []int) error {
	for _, v := range s.Verdicts {
		if !inLattice(v, heights) {
			return fmt.Errorf("resilience: checkpoint holds a verdict for node dims=%v levels=%v, outside this run's lattice (heights %v)",
				v.Dims, v.Levels, heights)
		}
	}
	return nil
}

func inLattice(v Verdict, heights []int) bool {
	if len(v.Dims) == 0 || len(v.Dims) != len(v.Levels) {
		return false
	}
	for i, d := range v.Dims {
		if d < 0 || d >= len(heights) || (i > 0 && d <= v.Dims[i-1]) {
			return false
		}
		if l := v.Levels[i]; l < 0 || l > heights[d] {
			return false
		}
	}
	return true
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
	env, err := encodeSnapshot(s)
	if err != nil {
		return err
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

// encodeSnapshot frames a snapshot as the current format's envelope.
func encodeSnapshot(s *Snapshot) ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	env, err := json.Marshal(envelope{Version: SnapshotVersion, Checksum: checksum(payload), Payload: payload})
	if err != nil {
		return nil, fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	return env, nil
}

// decodeSnapshot verifies (version and checksum) and decodes an envelope.
// Envelope and payload are decoded strictly: a field the format does not
// declare, or anything but white space after the value, is refused.
func decodeSnapshot(raw []byte) (*Snapshot, error) {
	var env envelope
	if err := decodeStrict(raw, &env); err != nil {
		return nil, fmt.Errorf("is corrupt: %w", err)
	}
	if env.Version != SnapshotVersion {
		return nil, fmt.Errorf("has format version %d, this build reads %d", env.Version, SnapshotVersion)
	}
	if got := checksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("failed checksum verification (have %s, recorded %s)", got, env.Checksum)
	}
	var s Snapshot
	if err := decodeStrict(env.Payload, &s); err != nil {
		return nil, fmt.Errorf("is corrupt: %w", err)
	}
	return &s, nil
}

func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the JSON value")
	}
	return nil
}

// Load reads, verifies (version and checksum) and decodes a snapshot file.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading checkpoint: %w", err)
	}
	s, err := decodeSnapshot(raw)
	if err != nil {
		return nil, fmt.Errorf("resilience: checkpoint %s %w", path, err)
	}
	return s, nil
}
