package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

func sampleRunState() *RunState {
	return &RunState{
		Fingerprint: Fingerprint{Algorithm: "incognito", Heights: []int{2, 1}, K: 2, MaxSuppress: 0, Rows: 6, TableHash: 0xabc},
		Cols:        []string{"Sex", "Zipcode"},
		K:           2,
		Rows:        6,
		Digests:     []uint64{0x9e3779b97f4a7c15, 42, math.MaxUint64},
		Records: []NodeRecord{
			{Dims: []int{0, 1}, Levels: []int{0, 0}, TallyLo: 3, TallyHi: 3, Thr: 66, Floor: math.MaxInt64,
				Band: []BandEntry{{V: []string{"M", "53715"}, N: 2}, {V: []string{"F", "53706"}, N: 1}}},
			{Dims: []int{0, 1}, Levels: []int{0, 1}, TallyLo: 1, TallyHi: 1, Thr: 66, Floor: math.MaxInt64,
				Band: []BandEntry{{V: []string{"M", "537*"}, N: 2}, {V: []string{"F", "537*"}, N: 1}}},
			{Dims: []int{0, 1}, Levels: []int{1, 1}, TallyLo: 0, TallyHi: 0, Thr: 66, Floor: 3},
		},
	}
}

func TestRunStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	want := sampleRunState()
	if err := SaveRunState(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed state\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRunStateMarshalRoundTrip(t *testing.T) {
	want := sampleRunState()
	got, err := UnmarshalRunState(MarshalRunState(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("marshal round trip changed state\ngot  %+v\nwant %+v", got, want)
	}
}

func TestRunStateChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.state")
	if err := SaveRunState(path, sampleRunState()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without breaking the JSON framing: the sample
	// contains the value "53715"; change one digit.
	tampered := strings.Replace(string(raw), "53715", "53716", 1)
	if tampered == string(raw) {
		t.Fatal("tamper target not found in encoded state")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered state loaded without checksum error: %v", err)
	}
}

func TestRunStateRejectsWrongVersion(t *testing.T) {
	payload, _ := json.Marshal(sampleRunState())
	env, _ := json.Marshal(envelope{Version: RunStateVersion + 1, Checksum: checksum(payload), Payload: payload})
	path := filepath.Join(t.TempDir(), "run.state")
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRunState(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version state loaded without version error: %v", err)
	}
	if _, err := UnmarshalRunState(env); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version bytes decoded without version error: %v", err)
	}
}

func TestRunStateSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.state")
	if err := SaveRunState(path, sampleRunState()); err != nil {
		t.Fatal(err)
	}
	// A second save replaces the file; no temp droppings remain either way.
	st := sampleRunState()
	st.Rows = 7
	if err := SaveRunState(path, st); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.state" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only run.state", names)
	}
	got, err := LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 7 {
		t.Fatalf("second save not visible: Rows = %d, want 7", got.Rows)
	}
}

// oracleMarshal and oracleUnmarshal are the encoding/json codec the
// hand-written one replaced, kept as the reference it must match.
func oracleMarshal(t *testing.T, s *RunState) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(envelope{Version: RunStateVersion, Checksum: checksum(payload), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func oracleUnmarshal(raw []byte) (*RunState, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	if env.Version != RunStateVersion {
		return nil, fmt.Errorf("format version %d", env.Version)
	}
	if got := checksum(env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("checksum %s, recorded %s", got, env.Checksum)
	}
	var s RunState
	if err := json.Unmarshal(env.Payload, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// frame wraps payload in an envelope with a correct checksum.
func frame(payload []byte) []byte {
	return []byte(fmt.Sprintf(`{"version":%d,"checksum":%q,"payload":%s}`, RunStateVersion, checksum(payload), payload))
}

// goldenNotes are the free-text values of the root package's golden state
// test: the empty string, bytes ≥ 0x80, and lengths around 256.
var goldenNotes = []string{
	"", "a", "b", "\x80", "é", "\xff\xfe",
	strings.Repeat("x", 255), strings.Repeat("x", 256), strings.Repeat("a", 257),
	strings.Repeat("z", 511), strings.Repeat("m", 512),
}

// notesRunState is sampleRunState with goldenNotes as band values.
func notesRunState() *RunState {
	s := sampleRunState()
	s.Records[0].Band = nil
	for i, note := range goldenNotes {
		s.Records[0].Band = append(s.Records[0].Band, BandEntry{V: []string{"M", note}, N: int64(i + 1)})
	}
	s.Records[2].Band = []BandEntry{{V: []string{"*", goldenNotes[3]}, N: 1}, {V: []string{"*", goldenNotes[5]}, N: 2}}
	return s
}

// stateStrings lists every string s holds.
func stateStrings(s *RunState) []string {
	if s == nil {
		return nil
	}
	strs := append([]string{s.Fingerprint.Algorithm}, s.Cols...)
	for _, rec := range s.Records {
		for _, e := range rec.Band {
			strs = append(strs, e.V...)
		}
	}
	return strs
}

// hasInvalidUTF8 reports whether any string s holds is not valid UTF-8:
// exactly the states whose encoding loses bytes, and so whose decoding
// must be marked lossy.
func hasInvalidUTF8(s *RunState) bool {
	return slices.ContainsFunc(stateStrings(s), func(v string) bool { return !utf8.ValidString(v) })
}

// holdsReplacement reports whether any string s holds contains U+FFFD.
func holdsReplacement(s *RunState) bool {
	return slices.ContainsFunc(stateStrings(s), func(v string) bool { return strings.ContainsRune(v, utf8.RuneError) })
}

// fuzzRecipe turns fuzz bytes into RunState fields, reaching every shape
// the writer distinguishes: nil and empty slices, an empty and a
// non-empty band, integers at their extremes, and strings that mix raw
// fuzz bytes with the fragments encoding/json escapes.
type fuzzRecipe struct{ b []byte }

var fuzzFragments = []string{
	"\x80", "\xff\xfe", "\xed\xa0\x80", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"<", ">", "&", `"`, `\`, "/", "\u2028", "\u2029", "\ufffd", "é", "a",
}

func (z *fuzzRecipe) next() byte {
	if len(z.b) == 0 {
		return 0
	}
	c := z.b[0]
	z.b = z.b[1:]
	return c
}

func (z *fuzzRecipe) str() string {
	c := z.next()
	if c&1 == 0 {
		n := min(int(c>>1)%24, len(z.b))
		s := string(z.b[:n])
		z.b = z.b[n:]
		return s
	}
	var sb strings.Builder
	for i := 0; i < int(c>>1)%5; i++ {
		sb.WriteString(fuzzFragments[int(z.next())%len(fuzzFragments)])
	}
	return sb.String()
}

func (z *fuzzRecipe) int64() int64 {
	switch c := z.next(); c % 5 {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -int64(z.next()) - 1
	default:
		return int64(c) << (c % 7 * 8)
	}
}

func (z *fuzzRecipe) int() int { return int(z.int64()) }

func (z *fuzzRecipe) uint64() uint64 { return uint64(z.int64()) }

// recipeList picks a list's shape, nil or a length up to 3 (0 is empty),
// and fills it with elem.
func recipeList[T any](z *fuzzRecipe, elem func() T) []T {
	n := int(z.next()%5) - 1
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (z *fuzzRecipe) runState() *RunState {
	s := &RunState{
		Fingerprint: Fingerprint{Algorithm: z.str(), Heights: recipeList(z, z.int), K: z.int64(), MaxSuppress: z.int64(), Rows: z.int()},
		Cols:        recipeList(z, z.str),
		K:           z.int64(),
		MaxSuppress: z.int64(),
		Rows:        z.int(),
		Digests:     recipeList(z, z.uint64),
		Records: recipeList(z, func() NodeRecord {
			return NodeRecord{Dims: recipeList(z, z.int), Levels: recipeList(z, z.int),
				TallyLo: z.int64(), TallyHi: z.int64(), Thr: z.int64(), Floor: z.int64(),
				Band: recipeList(z, func() BandEntry { return BandEntry{V: recipeList(z, z.str), N: z.int64()} })}
		}),
	}
	if c := z.next(); c%3 == 0 {
		s.Fingerprint.TableHash = math.MaxUint64
	} else {
		s.Fingerprint.TableHash = uint64(c) << (c % 8 * 8)
	}
	return s
}

// checkAgainstOracle requires s to encode to the oracle's bytes and to
// decode to a value DeepEqual to the oracle's decoding, marked lossy
// exactly when s holds a string that is not valid UTF-8 (encoding/json
// knows no such mark, so the oracle's copy takes the checked one).
func checkAgainstOracle(t *testing.T, s *RunState) {
	t.Helper()
	raw, want := MarshalRunState(s), oracleMarshal(t, s)
	if !bytes.Equal(raw, want) {
		t.Fatalf("encoding differs from encoding/json's\ngot  %q\nwant %q", raw, want)
	}
	got, err := UnmarshalRunState(raw)
	if err != nil {
		t.Fatalf("cannot read its own encoding: %v\n%q", err, raw)
	}
	ref, err := oracleUnmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := hasInvalidUTF8(s); got.Lossy() != want {
		t.Fatalf("decoded state has Lossy() = %v, want %v\n%q", got.Lossy(), want, raw)
	}
	ref.lossy = got.lossy
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("decoding differs from encoding/json's\ngot  %#v\nwant %#v", got, ref)
	}
}

// TestRunStateCodecMatchesEncodingJSON runs the oracle check on every
// fragment encoding/json escapes and on the nil, empty and extreme shapes,
// so a plain test run covers what the fuzz target explores.
func TestRunStateCodecMatchesEncodingJSON(t *testing.T) {
	frag := sampleRunState()
	frag.Fingerprint.Algorithm = strings.Join(fuzzFragments, "")
	frag.Fingerprint.TableHash = math.MaxUint64
	frag.Cols = fuzzFragments
	frag.Digests = []uint64{0, math.MaxUint64, 1 << 63}
	frag.Records = append(frag.Records, NodeRecord{Dims: []int{}, Band: []BandEntry{}},
		NodeRecord{Levels: []int{math.MinInt64, math.MaxInt64}, Band: []BandEntry{{V: goldenNotes}, {V: []string{}}, {},
			{V: fuzzFragments, N: math.MinInt64}, {V: []string{"\ufffd"}, N: math.MaxInt64}}})
	for _, s := range []*RunState{sampleRunState(), notesRunState(), frag, {Cols: []string{}, Digests: []uint64{}, Records: []NodeRecord{}}, {}, nil} {
		checkAgainstOracle(t, s)
	}
}

// TestRunStateMarksLossyValues: a value that held bytes that are not valid
// UTF-8 comes back holding U+FFFD and marks the state lossy; a value that
// held a real U+FFFD comes back unchanged and does not.
func TestRunStateMarksLossyValues(t *testing.T) {
	for _, tc := range []struct {
		value string
		lossy bool
	}{
		{"ok", false},
		{"\ufffd", false},
		{"a\ufffdb\u2028", false},
		{"\x80", true},
		{"\ufffd\xff", true},
		{"\xed\xa0\x80", true},
	} {
		s := sampleRunState()
		s.Records[0].Band[1].V[1] = tc.value
		got, err := UnmarshalRunState(MarshalRunState(s))
		if err != nil {
			t.Fatal(err)
		}
		if got.Lossy() != tc.lossy {
			t.Errorf("value %q: Lossy() = %v, want %v", tc.value, got.Lossy(), tc.lossy)
		}
		if s.Lossy() {
			t.Errorf("value %q: the in-memory state is marked lossy", tc.value)
		}
	}
}

// TestRunStateRefusesVersionOne: a state file written before the base-level
// set was dropped from the format is refused by version, naming both, so
// the caller knows to capture the state again.
func TestRunStateRefusesVersionOne(t *testing.T) {
	payload := []byte(`{"fingerprint":{"algorithm":"incognito","heights":[1],"k":2,"max_suppress":0,"rows":2,"table_hash":1},` +
		`"cols":["A"],"k":2,"max_suppress":0,"rows":2,"base":[{"v":["a"],"n":2}],"records":[]}`)
	env := []byte(fmt.Sprintf(`{"version":1,"checksum":%q,"payload":%s}`, checksum(payload), payload))
	path := filepath.Join(t.TempDir(), "v1.state")
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRunState(path)
	if err == nil || !strings.Contains(err.Error(), "format version 1") || !strings.Contains(err.Error(), fmt.Sprintf("reads %d", RunStateVersion)) {
		t.Fatalf("version-1 state: got %v, want an error naming versions 1 and %d", err, RunStateVersion)
	}
}

// FuzzRunStateCodec checks the hand-written codec against the encoding/json
// oracle. The fuzz bytes serve twice. As a recipe for a RunState, whose
// encoding must equal the oracle's byte for byte and whose decoding must be
// DeepEqual to the oracle's. And as a raw payload framed with a correct
// checksum, which the reader must never panic on and may accept only where
// the oracle accepts it, with a DeepEqual value.
func FuzzRunStateCodec(f *testing.F) {
	for _, s := range []*RunState{sampleRunState(), notesRunState(), {}} {
		payload, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// A payload from a toolchain that escaped \b as \u0008, and recipes
	// that reach the escaped fragments and the nil/empty list shapes.
	f.Add([]byte(`{"fingerprint":{"algorithm":"a\u0008b","heights":[],"k":-0,"max_suppress":0,"rows":0,"table_hash":0},` +
		`"cols":["\ufffd\ufffd"],"k":0,"max_suppress":0,"rows":0,"digests":[0,18446744073709551615],"records":[{"dims":null,"levels":[],` +
		`"tally_lo":0,"tally_hi":0,"thr":0,"floor":0,"band":[{"v":[],"n":1}]}]}`))
	f.Add([]byte("\x03\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x02\x01\x03\x04\x02\x03\x05\x13\x01\x00\x02\x07"))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, (&fuzzRecipe{b: data}).runState())

		env := frame(data)
		got, err := UnmarshalRunState(env)
		if err != nil {
			return
		}
		ref, err := oracleUnmarshal(env)
		if err != nil {
			t.Fatalf("accepted a payload encoding/json rejects (%v): %q", err, data)
		}
		if got.Lossy() && !holdsReplacement(ref) {
			t.Fatalf("payload %q is marked lossy but holds no U+FFFD", data)
		}
		ref.lossy = got.lossy
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("payload %q decodes differently\ngot  %#v\nwant %#v", data, got, ref)
		}
	})
}

// TestUnmarshalRunStateRejectsWithOffset: every truncation and every
// non-canonical variant of a valid file fails with an error naming the
// byte offset, and never panics.
func TestUnmarshalRunStateRejectsWithOffset(t *testing.T) {
	raw := MarshalRunState(sampleRunState())
	for n := 0; n < len(raw); n++ {
		if _, err := UnmarshalRunState(raw[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(raw))
		}
	}
	payload, err := json.Marshal(sampleRunState())
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(sampleRunState(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"indented":      indented,
		"reordered":     bytes.Replace(payload, []byte(`"k":2,"max_suppress":0`), []byte(`"max_suppress":0,"k":2`), 1),
		"trailing":      append(append([]byte(nil), payload...), ' '),
		"leading zero":  bytes.Replace(payload, []byte(`"rows":6`), []byte(`"rows":06`), 1),
		"fraction":      bytes.Replace(payload, []byte(`"rows":6`), []byte(`"rows":6.0`), 1),
		"overflow":      bytes.Replace(payload, []byte(`"rows":6`), []byte(`"rows":99999999999999999999`), 1),
		"negative hash": bytes.Replace(payload, []byte(`"table_hash":2748`), []byte(`"table_hash":-1`), 1),
		"control byte":  bytes.Replace(payload, []byte(`"53715"`), []byte("\"537\x0115\""), 1),
		"bad escape":    bytes.Replace(payload, []byte(`"53715"`), []byte(`"537\x15"`), 1),
	} {
		if bytes.Equal(p, payload) {
			t.Fatalf("%s: variant equals the canonical payload", name)
		}
		_, err := UnmarshalRunState(frame(p))
		if err == nil || !strings.Contains(err.Error(), "corrupt run state: byte ") {
			t.Errorf("%s: got %v, want a corrupt-state error naming a byte offset", name, err)
		}
	}
}

// TestUnmarshalRunStateGroupsDoNotAlias: V slices share one backing array,
// so each is clipped to its length; appending to one group's values must
// leave the next group's alone.
func TestUnmarshalRunStateGroupsDoNotAlias(t *testing.T) {
	got, err := UnmarshalRunState(MarshalRunState(sampleRunState()))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRunState()
	for _, s := range []*RunState{got, want} {
		s.Records[0].Band[0].V = append(s.Records[0].Band[0].V, "appended")
		s.Records[1].Band[0].V = append(s.Records[1].Band[0].V, "appended")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("an append to one group changed another\ngot  %+v\nwant %+v", got, want)
	}
}

// TestUnmarshalRunStateAllocsFollowValues: the reader interns values and
// carves every V slice out of a shared backing array, so ten times the
// band entries over the same value domain cost less than twice the
// allocations.
func TestUnmarshalRunStateAllocsFollowValues(t *testing.T) {
	measure := func(groups int) float64 {
		s := sampleRunState()
		band := make([]BandEntry, groups)
		for i := range band {
			band[i] = BandEntry{V: []string{fmt.Sprint("zip-", i%40), fmt.Sprint("age-", i/40%40), fmt.Sprint("sex-", i%3)}, N: int64(i%7 + 1)}
		}
		s.Records[0].Band = band
		raw := MarshalRunState(s)
		return testing.AllocsPerRun(5, func() {
			if _, err := UnmarshalRunState(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := measure(2000), measure(20000)
	t.Logf("UnmarshalRunState: %.0f allocations for 2,000 groups, %.0f for 20,000", few, many)
	if many >= 2*few {
		t.Fatalf("UnmarshalRunState made %.0f allocations for 20,000 groups and %.0f for 2,000, want less than twice", many, few)
	}
}
