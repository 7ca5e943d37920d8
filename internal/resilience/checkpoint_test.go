package resilience

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: Fingerprint{
			Algorithm:   "Basic Incognito",
			Heights:     []int{1, 1, 2},
			K:           2,
			MaxSuppress: 1,
			Rows:        6,
			TableHash:   0xdeadbeef,
		},
		Boundary: "iteration",
		Verdicts: []Verdict{
			{Dims: []int{0}, Levels: []int{0}, Pass: false},
			{Dims: []int{0}, Levels: []int{1}, Pass: true},
			{Dims: []int{0, 2}, Levels: []int{1, 2}, Pass: true},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	want := sampleSnapshot()
	if err := c.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if c.Saves() != 1 {
		t.Errorf("Saves = %d, want 1", c.Saves())
	}
	if c.LastSize() <= 0 {
		t.Errorf("LastSize = %d, want > 0", c.LastSize())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointSaveReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	first := sampleSnapshot()
	if err := c.Save(first); err != nil {
		t.Fatalf("Save: %v", err)
	}
	second := sampleSnapshot()
	second.Boundary = "level"
	if err := c.Save(second); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Boundary != "level" {
		t.Errorf("loaded Boundary = %q, want the second save's level", got.Boundary)
	}
	if got.Seq != 2 {
		t.Errorf("loaded Seq = %d, want 2", got.Seq)
	}
	// The atomic-replace temp files must not accumulate.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Errorf("stale temp file %s left behind", e.Name())
		}
	}
}

func TestCheckpointAfterSaveHook(t *testing.T) {
	c := NewCheckpointer(filepath.Join(t.TempDir(), "run.ckpt"))
	var seen []int64
	c.AfterSave = func(s *Snapshot) { seen = append(seen, s.Seq) }
	for i := 0; i < 3; i++ {
		if err := c.Save(sampleSnapshot()); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	if !reflect.DeepEqual(seen, []int64{1, 2, 3}) {
		t.Errorf("AfterSave saw seqs %v, want [1 2 3]", seen)
	}
}

func TestCheckpointClear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	c := NewCheckpointer(path)
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("snapshot file still exists after Clear (stat err: %v)", err)
	}
	// Clearing an already-cleared checkpointer is not an error.
	if err := c.Clear(); err != nil {
		t.Errorf("second Clear: %v", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	c := NewCheckpointer(path)
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("flipped payload byte", func(t *testing.T) {
		var env struct {
			Version  int             `json:"version"`
			Checksum string          `json:"checksum"`
			Payload  json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		// Flip a verdict inside the payload so the JSON stays well formed but
		// the checksum no longer matches.
		mutated := strings.Replace(string(env.Payload), `"p":true`, `"p":false`, 1)
		if mutated == string(env.Payload) {
			t.Fatal("test setup: payload mutation did not apply")
		}
		env.Payload = json.RawMessage(mutated)
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "bad.ckpt")
		if err := os.WriteFile(bad, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("Load of tampered payload: err = %v, want checksum failure", err)
		}
	})

	t.Run("wrong version", func(t *testing.T) {
		mutated := strings.Replace(string(raw), `"version":2`, `"version":99`, 1)
		if mutated == string(raw) {
			t.Fatal("test setup: version mutation did not apply")
		}
		bad := filepath.Join(dir, "vers.ckpt")
		if err := os.WriteFile(bad, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("Load of future version: err = %v, want version error", err)
		}
	})

	t.Run("truncated file", func(t *testing.T) {
		bad := filepath.Join(dir, "trunc.ckpt")
		if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Error("Load of truncated file succeeded, want error")
		}
	})

	t.Run("undeclared field", func(t *testing.T) {
		// A well-formed, correctly checksummed payload carrying a field the
		// format does not declare (here version 1's iteration count).
		payload := `{"fingerprint":{"algorithm":"Basic Incognito","heights":[1],"k":2,"max_suppress":0,"rows":6,"table_hash":1},"boundary":"iteration","seq":1,"verdicts":[],"iter":1}`
		sum := sha256.Sum256([]byte(payload))
		bad := filepath.Join(dir, "field.ckpt")
		env := `{"version":2,"checksum":"sha256:` + hex.EncodeToString(sum[:]) + `","payload":` + payload + `}`
		if err := os.WriteFile(bad, []byte(env), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "iter") {
			t.Errorf("Load of a payload with an undeclared field: err = %v, want it refused by name", err)
		}
	})

	t.Run("trailing bytes", func(t *testing.T) {
		bad := filepath.Join(dir, "trailing.ckpt")
		if err := os.WriteFile(bad, append(append([]byte(nil), raw...), `{}`...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Error("Load of a file with bytes after the envelope succeeded, want error")
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := Load(filepath.Join(dir, "nope.ckpt")); err == nil {
			t.Error("Load of missing file succeeded, want error")
		}
	})
}

func TestFingerprintEqual(t *testing.T) {
	base := sampleSnapshot().Fingerprint
	if !base.Equal(base) {
		t.Error("fingerprint not equal to itself")
	}
	for name, mutate := range map[string]func(*Fingerprint){
		"algorithm":   func(f *Fingerprint) { f.Algorithm = "Cube Incognito" },
		"heights":     func(f *Fingerprint) { f.Heights = []int{1, 1, 3} },
		"height rank": func(f *Fingerprint) { f.Heights = []int{1, 1} },
		"k":           func(f *Fingerprint) { f.K = 3 },
		"suppress":    func(f *Fingerprint) { f.MaxSuppress = 0 },
		"rows":        func(f *Fingerprint) { f.Rows = 7 },
		"table hash":  func(f *Fingerprint) { f.TableHash = 1 },
	} {
		other := base
		other.Heights = append([]int(nil), base.Heights...)
		mutate(&other)
		if base.Equal(other) {
			t.Errorf("fingerprints differing in %s compare equal", name)
		}
	}
}

func TestNilCheckpointer(t *testing.T) {
	var c *Checkpointer
	if c := NewCheckpointer(""); c != nil {
		t.Error("NewCheckpointer(\"\") != nil")
	}
	if err := c.Save(sampleSnapshot()); err != nil {
		t.Errorf("nil Save: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Errorf("nil Clear: %v", err)
	}
	if c.Path() != "" || c.Saves() != 0 || c.LastSize() != 0 {
		t.Error("nil checkpointer accessors not zero")
	}
}

// TestFingerprintKey pins the stable string form the service's result
// cache keys on: injective over the fingerprint fields (Equal ⇔ same Key)
// and stable across processes — changing it would orphan cached results.
func TestFingerprintKey(t *testing.T) {
	base := sampleSnapshot().Fingerprint
	want := "Basic Incognito|k=2|s=1|rows=6|table=00000000deadbeef|heights=1,1,2"
	if got := base.Key(); got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	for name, mutate := range map[string]func(*Fingerprint){
		"algorithm":  func(f *Fingerprint) { f.Algorithm = "Cube Incognito" },
		"heights":    func(f *Fingerprint) { f.Heights = []int{1, 1, 3} },
		"k":          func(f *Fingerprint) { f.K = 3 },
		"suppress":   func(f *Fingerprint) { f.MaxSuppress = 0 },
		"rows":       func(f *Fingerprint) { f.Rows = 7 },
		"table hash": func(f *Fingerprint) { f.TableHash = 1 },
	} {
		other := base
		other.Heights = append([]int(nil), base.Heights...)
		mutate(&other)
		if other.Key() == base.Key() {
			t.Errorf("fingerprints differing in %s share a key", name)
		}
	}
}

// FuzzCheckpoint feeds arbitrary bytes to the snapshot decoder, both as a
// whole file and as the payload of an envelope whose checksum matches, so
// the fuzzer gets past the checksum to the payload decoder. Decoding never
// panics and a refusal is an error; an accepted snapshot re-encodes and
// decodes to an equal value; and the resume-time lattice check, under
// heights drawn from the input, refuses exactly the snapshots holding a
// verdict outside the lattice.
func FuzzCheckpoint(f *testing.F) {
	sample, err := encodeSnapshot(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	// A snapshot of a Basic run over the paper's Patients table (heights
	// 1, 1, 2), saved at its last breadth-first level boundary.
	patients, err := os.ReadFile(filepath.Join("testdata", "patients.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{sample, patients} {
		var env envelope
		if err := json.Unmarshal(seed, &env); err != nil {
			f.Fatal(err)
		}
		f.Add(seed, []byte{1, 1, 2})
		f.Add([]byte(env.Payload), []byte{1, 1, 2})
		f.Add([]byte(env.Payload), []byte{1, 0})
	}
	f.Fuzz(func(t *testing.T, data, hs []byte) {
		heights := make([]int, min(len(hs), 8))
		for i := range heights {
			heights[i] = int(int8(hs[i]))
		}
		sum := sha256.Sum256(data)
		wrapped := []byte(`{"version":2,"checksum":"sha256:` + hex.EncodeToString(sum[:]) + `","payload":` + string(data) + `}`)
		for _, raw := range [][]byte{data, wrapped} {
			s, err := decodeSnapshot(raw)
			if err != nil {
				if s != nil {
					t.Fatalf("refused input returned a snapshot: %v", err)
				}
				continue
			}
			enc, err := encodeSnapshot(s)
			if err != nil {
				t.Fatalf("accepted snapshot does not re-encode: %v", err)
			}
			back, err := decodeSnapshot(enc)
			if err != nil {
				t.Fatalf("re-encoded snapshot is refused: %v", err)
			}
			if !reflect.DeepEqual(back, s) {
				t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", back, s)
			}
			outside := false
			for _, v := range s.Verdicts {
				if !latticeNode(v, heights) {
					outside = true
				}
			}
			if err := s.CheckLattice(heights); (err != nil) != outside {
				t.Fatalf("CheckLattice(%v) = %v, want a refusal: %v", heights, err, outside)
			}
		}
	})
}

// latticeNode is FuzzCheckpoint's oracle: a verdict names a lattice node
// when it has at least one attribute, as many levels as attributes, sorted
// attributes with no repeats, all within range, and every level between 0
// and its attribute's height.
func latticeNode(v Verdict, heights []int) bool {
	if len(v.Dims) == 0 || len(v.Dims) != len(v.Levels) || !sort.IntsAreSorted(v.Dims) {
		return false
	}
	seen := make(map[int]bool)
	for i, d := range v.Dims {
		if seen[d] || d < 0 || d >= len(heights) || v.Levels[i] < 0 || v.Levels[i] > heights[d] {
			return false
		}
		seen[d] = true
	}
	return true
}
