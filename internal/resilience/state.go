package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// RunStateVersion is the persisted run-state format version; LoadRunState
// rejects files written by an incompatible format. Version 1 also stored
// the table's base-level frequency set and no digests.
const RunStateVersion = 2

// BandEntry is one exactly-known group of a node's capture band, keyed by
// the node's generalized value strings. Value strings survive any table
// rebuild: deleting or appending rows permutes dictionary codes, but the
// values they decode to are stable, so a record written against table T
// applies to any edit of T.
type BandEntry struct {
	V []string `json:"v"`
	N int64    `json:"n"`
}

// NodeRecord summarizes what a completed run learned about one lattice
// node's frequency set, in just enough detail for a later delta run to
// re-derive the node's k-anonymity verdict without rescanning — unless the
// delta genuinely puts the verdict in doubt.
//
//   - TallyLo/TallyHi bound TuplesBelow(k), the suppression tally the
//     verdict compares against MaxSuppress. They are equal when the tally
//     is exactly known.
//   - Band holds exact counts for every group whose count was below Thr at
//     capture time (plus any group a delta has since touched), keyed by
//     generalized value strings.
//   - Floor is a lower bound on the count of every group that exists but is
//     not in the band (MaxInt64 when the band holds every group).
//
// A small band suffices: only groups near k can flip the verdict, and after
// generalization most groups sit far above k.
type NodeRecord struct {
	Dims    []int       `json:"dims"`
	Levels  []int       `json:"levels"`
	TallyLo int64       `json:"tally_lo"`
	TallyHi int64       `json:"tally_hi"`
	Thr     int64       `json:"thr"`
	Floor   int64       `json:"floor"`
	Band    []BandEntry `json:"band,omitempty"`
}

// RunState is the persistent state a completed run retains for
// incremental re-anonymization: the identity of the instance it describes,
// one NodeRecord per lattice node the search examined, and digests that
// prove which table and hierarchies the records describe. It holds nothing
// a delta run can read off the table it is handed. It is a sibling of
// Snapshot — Snapshot captures where a search is, RunState captures what
// a search measured — and both share the same envelope framing (version,
// checksum, atomic replace).
//
// Digests[i] sums, modulo 2^64 over the table's rows, a hash of the row's
// value at every level of QI attribute i's hierarchy; the last entry sums
// a per-row hash over all attributes. internal/core/delta.go defines the
// hashes. The sums do not depend on row order and are additive over rows.
//
// The json tags name the keys of the file format; the codec below writes
// and reads them by hand, in field order.
type RunState struct {
	Fingerprint Fingerprint  `json:"fingerprint"`
	Cols        []string     `json:"cols"` // QI column names, in dims order
	K           int64        `json:"k"`
	MaxSuppress int64        `json:"max_suppress"`
	Rows        int          `json:"rows"`
	Digests     []uint64     `json:"digests"`
	Records     []NodeRecord `json:"records"`

	// lossy marks a state decoded from a file in which some value had
	// bytes that were not valid UTF-8 (see Lossy).
	lossy bool
}

// Lossy reports whether the state was decoded from a file in which some
// value string lost bytes: a JSON string cannot carry bytes that are not
// valid UTF-8, so the writer saved each as U+FFFD, and a band entry may no
// longer name the group it counted. The writer escapes only such a byte as
// \ufffd and writes a real U+FFFD as is, so the reader tells the two apart.
// States built in memory are never lossy.
func (s *RunState) Lossy() bool { return s.lossy }

// SaveRunState atomically writes state to path with the shared envelope
// framing: a crash mid-save leaves any previous state file intact.
func SaveRunState(path string, state *RunState) error {
	if err := writeAtomic(path, ".state-*", MarshalRunState(state)); err != nil {
		return fmt.Errorf("resilience: writing run state: %w", err)
	}
	return nil
}

// LoadRunState reads, verifies (version and checksum) and decodes a run
// state file.
func LoadRunState(path string) (*RunState, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: reading run state: %w", err)
	}
	return decodeRunState(raw, " "+path)
}

// MarshalRunState encodes state in its canonical form: the envelope
// {"version":2,"checksum":"sha256:<hex>","payload":<payload>}, where the
// payload is byte for byte what encoding/json.Marshal writes for a
// RunState — keys in field order, no whitespace, HTML-safe string escapes,
// nil slices as null, band omitted when empty. The payload is appended in
// place behind a fixed-size header whose checksum slot is filled last.
func MarshalRunState(state *RunState) []byte {
	b := append(make([]byte, 0, sizeHint(state)), `{"version":`...)
	b = strconv.AppendInt(b, RunStateVersion, 10)
	b = append(b, `,"checksum":"sha256:`...)
	sumAt := len(b)
	b = append(b, make([]byte, hex.EncodedLen(sha256.Size))...)
	b = append(b, `","payload":`...)
	payloadAt := len(b)
	b = appendRunState(b, state)
	sum := sha256.Sum256(b[payloadAt:])
	hex.Encode(b[sumAt:], sum[:])
	return append(b, '}')
}

// UnmarshalRunState decodes and verifies an envelope-framed run state
// produced by MarshalRunState or SaveRunState.
func UnmarshalRunState(raw []byte) (*RunState, error) { return decodeRunState(raw, "") }

// sizeHint is an upper bound on the encoding's size unless strings need
// escaping, so the buffer is allocated once instead of doubling its way up
// to several megabytes.
func sizeHint(s *RunState) int {
	if s == nil {
		return 256
	}
	group := func(v []string) int {
		n := 40 // the group's keys, brackets and count
		for _, x := range v {
			n += len(x) + 3
		}
		return n
	}
	n := 512 + len(s.Fingerprint.Algorithm) + 21*(len(s.Fingerprint.Heights)+len(s.Digests)) + group(s.Cols)
	for _, rec := range s.Records {
		n += 256 + 21*(len(rec.Dims)+len(rec.Levels))
		for _, e := range rec.Band {
			n += group(e.V)
		}
	}
	return n
}

func appendRunState(b []byte, s *RunState) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	f := &s.Fingerprint
	b = append(b, `{"fingerprint":{"algorithm":`...)
	b = appendString(b, f.Algorithm)
	b = append(b, `,"heights":`...)
	b = appendList(b, f.Heights, appendInt)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, f.K, 10)
	b = append(b, `,"max_suppress":`...)
	b = strconv.AppendInt(b, f.MaxSuppress, 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(f.Rows), 10)
	b = append(b, `,"table_hash":`...)
	b = strconv.AppendUint(b, f.TableHash, 10)
	b = append(b, `},"cols":`...)
	b = appendList(b, s.Cols, appendString)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, s.K, 10)
	b = append(b, `,"max_suppress":`...)
	b = strconv.AppendInt(b, s.MaxSuppress, 10)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(s.Rows), 10)
	b = append(b, `,"digests":`...)
	b = appendList(b, s.Digests, appendUint)
	b = append(b, `,"records":`...)
	b = appendList(b, s.Records, appendRecord)
	return append(b, '}')
}

func appendRecord(b []byte, rec NodeRecord) []byte {
	b = append(b, `{"dims":`...)
	b = appendList(b, rec.Dims, appendInt)
	b = append(b, `,"levels":`...)
	b = appendList(b, rec.Levels, appendInt)
	b = append(b, `,"tally_lo":`...)
	b = strconv.AppendInt(b, rec.TallyLo, 10)
	b = append(b, `,"tally_hi":`...)
	b = strconv.AppendInt(b, rec.TallyHi, 10)
	b = append(b, `,"thr":`...)
	b = strconv.AppendInt(b, rec.Thr, 10)
	b = append(b, `,"floor":`...)
	b = strconv.AppendInt(b, rec.Floor, 10)
	if len(rec.Band) > 0 {
		b = append(b, `,"band":`...)
		b = appendList(b, rec.Band, appendBandEntry)
	}
	return append(b, '}')
}

func appendBandEntry(b []byte, e BandEntry) []byte {
	b = append(b, `{"v":`...)
	b = appendList(b, e.V, appendString)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, e.N, 10)
	return append(b, '}')
}

// appendList writes xs as a JSON array, or null when xs is nil.
func appendList[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

func appendInt(b []byte, x int) []byte { return strconv.AppendInt(b, int64(x), 10) }

func appendUint(b []byte, x uint64) []byte { return strconv.AppendUint(b, x, 10) }

// jsonSafe[c] reports whether encoding/json writes the ASCII byte c as is.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string exactly as encoding/json does with
// HTML escaping on: \" \\ \b \f \n \r \t, other control bytes and < > & as
// \u00xx, each byte that is not valid UTF-8 as \ufffd, and U+2028 and
// U+2029 as \u2028 and \u2029. Everything else is copied.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeRunState verifies and decodes a state file's bytes; name (empty, or
// a space and the file's path) completes the error messages. The envelope
// is read in the writer's key order: the version first, so a future format
// is named as such whatever follows it, then the checksum over the exact
// payload bytes, then the payload in one pass.
func decodeRunState(raw []byte, name string) (*RunState, error) {
	r := &stateReader{buf: raw, end: len(raw)}
	r.lit(`{"version":`)
	if v := r.integer(strconv.IntSize); r.err == nil && v != RunStateVersion {
		return nil, fmt.Errorf("resilience: run state%s has format version %d, this build reads %d; capture it again with a cold run", name, v, RunStateVersion)
	}
	r.lit(`,"checksum":"`)
	sumAt := r.pos
	for r.err == nil && r.pos < r.end && raw[r.pos] != '"' && raw[r.pos] != '\\' {
		r.pos++
	}
	recorded := raw[sumAt:r.pos]
	r.lit(`","payload":`)
	if r.err == nil && raw[len(raw)-1] != '}' {
		r.pos = len(raw) - 1
		r.fail("want the envelope's closing %q", "}")
	}
	if r.err != nil {
		return nil, fmt.Errorf("resilience: corrupt run state%s: %w", name, r.err)
	}
	r.end = len(raw) - 1
	if got := checksum(raw[r.pos:r.end]); got != string(recorded) {
		return nil, fmt.Errorf("resilience: run state%s failed checksum verification (have %s, recorded %s)", name, got, recorded)
	}
	s := r.runState()
	if r.err == nil && r.pos != r.end {
		r.fail("trailing bytes after the payload")
	}
	if r.err != nil {
		return nil, fmt.Errorf("resilience: corrupt run state%s: %w", name, r.err)
	}
	return s, nil
}

// stateReader walks a payload once, front to back, accepting exactly the
// writer's form. The first mismatch sets err, naming its byte offset in
// the file, and turns every later call into a no-op, so callers test err
// only where a loop must stop. The checksum already pins the payload's
// exact bytes, so a strict reader rejects nothing a writer produced.
type stateReader struct {
	buf []byte // the whole file
	pos int
	end int // where the part being read ends
	err error

	// strs maps a string token's raw bytes to its value, so a value
	// repeated across groups is one string.
	strs map[string]string
	// arena is the chunk of the shared backing array that V slices are
	// carved from; vals, ints and band are scratch for the list being read.
	arena []string
	vals  []string
	ints  []int
	band  []BandEntry
	// lossy records that a string decoded to more U+FFFD than the file
	// wrote as is: the rest stand for bytes that were not valid UTF-8.
	lossy bool
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: %s", r.pos, fmt.Sprintf(format, args...))
	}
}

func (r *stateReader) peek() byte {
	if r.err != nil || r.pos >= r.end {
		return 0
	}
	return r.buf[r.pos]
}

// lit consumes the literal s.
func (r *stateReader) lit(s string) {
	if r.err != nil {
		return
	}
	if r.end-r.pos < len(s) || string(r.buf[r.pos:r.pos+len(s)]) != s {
		r.fail("want %q", s)
		return
	}
	r.pos += len(s)
}

// optional consumes the literal s if it comes next.
func (r *stateReader) optional(s string) bool {
	if r.err != nil || r.end-r.pos < len(s) || string(r.buf[r.pos:r.pos+len(s)]) != s {
		return false
	}
	r.pos += len(s)
	return true
}

// list reads a JSON array, calling elem at each element. It reports false
// for null (and after an error), true for an array, even an empty one.
func (r *stateReader) list(elem func()) bool {
	if r.optional("null") {
		return false
	}
	r.lit("[")
	if r.optional("]") {
		return true
	}
	for r.err == nil {
		elem()
		if r.optional("]") {
			break
		}
		r.lit(",")
	}
	return r.err == nil
}

// integer reads a JSON integer that fits a signed integer of the given
// bit size. A fraction or an exponent fails at the literal that follows.
func (r *stateReader) integer(bits int) int64 {
	neg := r.optional("-")
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	u := r.digits(limit)
	if neg {
		return -int64(u)
	}
	return int64(u)
}

// digits reads the digits of a JSON integer no greater than limit: at
// least one, with no leading zero.
func (r *stateReader) digits(limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	start := r.pos
	var u uint64
	ok := true
	for ; r.pos < r.end && '0' <= r.buf[r.pos] && r.buf[r.pos] <= '9'; r.pos++ {
		d := uint64(r.buf[r.pos] - '0')
		ok = ok && u <= (limit-d)/10
		u = u*10 + d
	}
	if n := r.pos - start; !ok || n == 0 || (n > 1 && r.buf[start] == '0') {
		r.pos = start
		r.fail("malformed or out-of-range integer")
		return 0
	}
	return u
}

// str reads a JSON string. A token without escapes whose bytes are valid
// UTF-8 is its own value; any other goes to encoding/json to unquote, so
// its value is the standard decoder's (an invalid byte becomes U+FFFD, an
// old \u0008 a backspace). Each distinct token is decoded once. A value
// holding a U+FFFD that the token does not hold as is marks the state
// lossy: the writer escapes U+FFFD only in place of a byte that was not
// valid UTF-8.
func (r *stateReader) str() string {
	if r.peek() != '"' {
		r.fail("want a string")
		return ""
	}
	r.pos++
	start, plain := r.pos, true
	for {
		if r.pos >= r.end {
			r.fail("unterminated string")
			return ""
		}
		c := r.buf[r.pos]
		if c == '"' {
			break
		}
		if c < ' ' {
			r.fail("control byte %#02x in a string", c)
			return ""
		}
		if c == '\\' {
			plain = false
			r.pos++
		}
		r.pos++
	}
	tok := r.buf[start:r.pos]
	r.pos++
	if plain && (len(tok) == 0 || len(tok) == 1 && tok[0] < utf8.RuneSelf) {
		return string(tok) // the runtime keeps these strings; no allocation
	}
	if s, ok := r.strs[string(tok)]; ok {
		return s
	}
	if r.strs == nil {
		r.strs = make(map[string]string)
	}
	if plain && utf8.Valid(tok) {
		s := string(tok)
		r.strs[s] = s
		return s
	}
	var s string
	if err := json.Unmarshal(r.buf[start-1:r.pos], &s); err != nil {
		r.pos = start - 1
		r.fail("string: %v", err)
		return ""
	}
	if strings.Count(s, "\uFFFD") > bytes.Count(tok, []byte("\uFFFD")) {
		r.lossy = true
	}
	r.strs[string(tok)] = s
	return s
}

// strings reads a list of strings into the shared backing array.
func (r *stateReader) strings() []string {
	r.vals = r.vals[:0]
	if !r.list(func() { r.vals = append(r.vals, r.str()) }) {
		return nil
	}
	return r.carve(r.vals)
}

// carve copies vals into the shared backing array and returns the copy
// with its capacity clipped to its length, so an append to one group's
// values can never write into the next group's. Chunks double up to a
// bound, so a state costs one allocation per thousands of values.
func (r *stateReader) carve(vals []string) []string {
	if len(vals) == 0 {
		return []string{}
	}
	if cap(r.arena)-len(r.arena) < len(vals) {
		r.arena = make([]string, 0, max(len(vals), min(max(2*cap(r.arena), 64), 1<<14)))
	}
	at := len(r.arena)
	r.arena = append(r.arena, vals...)
	return r.arena[at:len(r.arena):len(r.arena)]
}

func (r *stateReader) intList() []int {
	r.ints = r.ints[:0]
	if !r.list(func() { r.ints = append(r.ints, int(r.integer(strconv.IntSize))) }) {
		return nil
	}
	return append([]int{}, r.ints...)
}

func (r *stateReader) bandEntry() BandEntry {
	var e BandEntry
	r.lit(`{"v":`)
	e.V = r.strings()
	r.lit(`,"n":`)
	e.N = r.integer(64)
	r.lit("}")
	return e
}

func (r *stateReader) record() NodeRecord {
	var rec NodeRecord
	r.lit(`{"dims":`)
	rec.Dims = r.intList()
	r.lit(`,"levels":`)
	rec.Levels = r.intList()
	r.lit(`,"tally_lo":`)
	rec.TallyLo = r.integer(64)
	r.lit(`,"tally_hi":`)
	rec.TallyHi = r.integer(64)
	r.lit(`,"thr":`)
	rec.Thr = r.integer(64)
	r.lit(`,"floor":`)
	rec.Floor = r.integer(64)
	if r.optional(`,"band":`) {
		r.band = r.band[:0]
		if r.list(func() { r.band = append(r.band, r.bandEntry()) }) {
			rec.Band = append([]BandEntry{}, r.band...)
		}
	}
	r.lit("}")
	return rec
}

func (r *stateReader) runState() *RunState {
	s := &RunState{}
	if r.optional("null") {
		return s
	}
	f := &s.Fingerprint
	r.lit(`{"fingerprint":{"algorithm":`)
	f.Algorithm = r.str()
	r.lit(`,"heights":`)
	f.Heights = r.intList()
	r.lit(`,"k":`)
	f.K = r.integer(64)
	r.lit(`,"max_suppress":`)
	f.MaxSuppress = r.integer(64)
	r.lit(`,"rows":`)
	f.Rows = int(r.integer(strconv.IntSize))
	r.lit(`,"table_hash":`)
	f.TableHash = r.digits(math.MaxUint64)
	r.lit(`},"cols":`)
	s.Cols = r.strings()
	r.lit(`,"k":`)
	s.K = r.integer(64)
	r.lit(`,"max_suppress":`)
	s.MaxSuppress = r.integer(64)
	r.lit(`,"rows":`)
	s.Rows = int(r.integer(strconv.IntSize))
	r.lit(`,"digests":`)
	if r.list(func() { s.Digests = append(s.Digests, r.digits(math.MaxUint64)) }) && s.Digests == nil {
		s.Digests = []uint64{}
	}
	r.lit(`,"records":`)
	if r.list(func() { s.Records = append(s.Records, r.record()) }) && s.Records == nil {
		s.Records = []NodeRecord{}
	}
	r.lit("}")
	s.lossy = r.lossy
	return s
}
