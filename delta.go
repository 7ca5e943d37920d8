package incognito

import (
	"context"
	"encoding/binary"
	"fmt"

	"incognito/internal/core"
	"incognito/internal/resilience"
)

// RunState is the persistent residue of a completed run that makes
// incremental re-anonymization possible: one compact record per lattice
// node the search validated explicitly — a tally of the tuples below k, a
// band of the group counts near k, and a floor under everything outside
// the band — plus digests of the table's generalization chains, which
// prove that the records describe a given table under given hierarchies.
// Band values are stored as strings, not dictionary codes, so a state
// survives the dictionary-code permutation a rebuilt table induces. The
// table itself is not stored: AnonymizeDelta is handed it. Produce a state
// with Config.RetainState (or from AnonymizeDelta, which always returns
// the follow-on state), persist it with SaveRunState, and feed it to
// AnonymizeDelta with the table it was captured from.
type RunState = resilience.RunState

// DeltaCounters reports how much work a delta run actually did, next to
// the bit-identical Stats it shares with a cold run: rows re-scanned (the
// delta rows themselves plus the whole edited table for every root the
// run had to scan) and the split of checked nodes into screened (verdict
// proven from the saved record, no frequency set built) versus revalidated
// (full recount).
type DeltaCounters = core.DeltaCounters

// SaveRunState writes a run state to path with the same versioned,
// checksummed, atomic-replace framing checkpoints use.
func SaveRunState(path string, s *RunState) error { return resilience.SaveRunState(path, s) }

// LoadRunState reads, verifies and decodes a state written by SaveRunState.
// It refuses a file of another format version, such as one written before
// the format dropped the base-level frequency set (version 1): capture such
// a state again with a cold run.
func LoadRunState(path string) (*RunState, error) { return resilience.LoadRunState(path) }

// DeltaResult is the outcome of AnonymizeDelta: a full Result over the
// edited table — Solutions and Stats bit-identical to a cold run — plus
// the edited table itself, the work counters proving how little was
// redone, and (via State) the follow-on state for chaining further deltas.
type DeltaResult struct {
	*Result
	// Table is the edited table the result describes: the input table with
	// the removed rows deleted and the added rows appended. Solutions apply
	// to it.
	Table *Table
	// Counters quantifies the delta run's savings.
	Counters DeltaCounters
}

// ApplyRowDelta builds the edited table a delta describes: each row of del
// deletes one matching tuple (full-row string equality; duplicates are
// deleted once per del entry, first occurrences first), each row of add
// appends one tuple. It is the canonical edit AnonymizeDelta performs
// internally — exposed so callers can produce the same bytes for a
// cold-run comparison. Deleting a row the table does not contain (or
// contains fewer times than del asks) is an error.
//
// The edit runs on dictionary codes: deleted rows are matched by their
// code tuples and the kept rows' code vectors are copied, so a row costs
// a few code reads and one map probe, never a string.
func ApplyRowDelta(t *Table, add, del [][]string) (*Table, error) {
	if t == nil {
		return nil, fmt.Errorf("incognito: nil table")
	}
	cols := t.rel.NumCols()
	for _, r := range append(append([][]string{}, add...), del...) {
		if len(r) != cols {
			return nil, fmt.Errorf("incognito: delta row has %d values, table has %d columns", len(r), cols)
		}
	}
	// keys[i] packs del[i]'s codes, four bytes per column. It stays empty
	// when del[i] holds a value the table lacks, so it matches no row.
	keys := make([]string, len(del))
	pending := make(map[string]int, len(del))
	buf := make([]byte, 4*cols)
next:
	for i, r := range del {
		for c, v := range r {
			code, ok := t.rel.Dict(c).Code(v)
			if !ok {
				continue next
			}
			binary.LittleEndian.PutUint32(buf[4*c:], uint32(code))
		}
		keys[i] = string(buf)
		pending[keys[i]]++
	}
	drop := make([]bool, t.rel.NumRows())
	if len(pending) > 0 {
		for row := range drop {
			for c := 0; c < cols; c++ {
				binary.LittleEndian.PutUint32(buf[4*c:], uint32(t.rel.Code(row, c)))
			}
			if n := pending[string(buf)]; n > 0 {
				pending[string(buf)] = n - 1
				drop[row] = true
			}
		}
	}
	for i, key := range keys {
		if key == "" || pending[key] > 0 {
			return nil, fmt.Errorf("incognito: delta deletes row %v more times than the table contains it", del[i])
		}
	}
	// Select re-encodes the kept rows into first-appearance dictionaries,
	// the ones AppendRow would build from the same rows one by one.
	out := t.rel.Select(func(row int) bool { return !drop[row] })
	for _, r := range add {
		_ = out.AppendRow(r) // cannot fail: the widths are checked above
	}
	return &Table{rel: out}, nil
}

// AnonymizeDelta re-anonymizes after a small edit without redoing the
// lattice work the edit cannot have invalidated. t is the table the state
// was captured from; add and del are full-schema rows to append and
// delete (see ApplyRowDelta). The run replays the Basic Incognito search
// over the edited table, but each node whose saved record proves the edit
// could not move it across the k-anonymity boundary is screened — its
// verdict reused, no frequency set built — and only nodes the record
// cannot decide are recounted. Solutions and Stats are bit-identical to a
// cold Anonymize of the edited table; Counters reports the savings.
//
// The state's digests must equal those of the edited table less add plus
// del under qi's hierarchies. Otherwise the state describes another table,
// or the same table under a hierarchy that generalizes some value
// differently, and the run is refused with an error naming the attribute.
//
// Only BasicIncognito supports delta runs (the Config default). The run
// honors Parallelism, Tracer/Progress/Metrics and Checkpoint/Resume;
// memory budgets are rejected.
// The returned DeltaResult carries the follow-on state (State) so deltas
// chain without ever recomputing from scratch.
func AnonymizeDelta(ctx context.Context, t *Table, qi []QI, cfg Config, state *RunState, add, del [][]string) (*DeltaResult, error) {
	if state == nil {
		return nil, fmt.Errorf("incognito: delta run without a saved state")
	}
	if cfg.Algorithm != BasicIncognito {
		return nil, fmt.Errorf("incognito: delta runs support only %s, not %s", BasicIncognito, cfg.Algorithm)
	}
	if cfg.Budget != nil {
		return nil, fmt.Errorf("incognito: delta runs do not support memory budgets")
	}
	in, err := cfg.input(ctx, t, qi)
	if err != nil {
		return nil, err
	}
	sp := in.StartSpan("delta.edit")
	sp.SetAttr("rows_in", t.NumRows())
	edited, err := ApplyRowDelta(t, add, del)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.SetAttr("rows_out", edited.NumRows())
	sp = in.StartSpan("delta.bind")
	attrs, names, specs, err := bindQISpecs(edited, qi)
	var added, removed []core.DeltaRow
	if err == nil {
		cols := make([]int, len(attrs))
		for i, a := range attrs {
			cols[i] = a.Col
		}
		if added, removed, err = core.DeltaRows(cols, specs, add, del); err != nil {
			err = fmt.Errorf("incognito: %w", err)
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	run := &core.DeltaRun{State: state, Added: added, Removed: removed}
	in.Table, in.QI = edited.rel, attrs
	in.Capture, in.Delta = &core.StateCapture{}, run
	cfg.Tracer.SetAttr("algorithm", cfg.Algorithm.String())
	cfg.Tracer.SetAttr("k", cfg.K)
	cfg.Tracer.SetAttr("delta_added", len(add))
	cfg.Tracer.SetAttr("delta_removed", len(del))

	r, err := core.Run(in, core.Basic)
	if err != nil {
		return nil, err
	}
	res := &Result{in: in, qiNames: names, heights: in.Heights(), complete: true}
	res.solutions = r.Solutions
	res.stats = wrapStats(r.Stats)
	sp = in.StartSpan("delta.capture")
	res.state = &resilience.RunState{
		Fingerprint: in.Fingerprint(cfg.Algorithm.String()),
		Cols:        append([]string(nil), state.Cols...),
		K:           in.K,
		MaxSuppress: in.MaxSuppress,
		Rows:        edited.rel.NumRows(),
		Digests:     run.Digests(),
		Records:     append(in.Capture.Records(), run.UntouchedRecords(&in)...),
	}
	sp.End()
	out := &DeltaResult{Result: res, Table: edited}
	if r.Delta != nil {
		out.Counters = *r.Delta
	}
	return out, nil
}
