package core

// This file implements incremental re-anonymization. A completed run can
// capture a RunState: the base-level frequency set as value-string groups
// plus one NodeRecord per checked lattice node (exact counts for the
// groups near k, a floor for the rest, and bounds on the suppression
// tally). A later delta run — the same table edited by a small set of
// added/removed rows — replays the Basic search over the new table but
// answers most k-anonymity checks from the records instead of computing
// frequency sets:
//
//   - every delta row's contribution to a node's groups is known exactly
//     from the record's band, or bounded by its floor;
//   - when the resulting tally bounds stay on one side of the suppression
//     threshold, the node's verdict on the edited table is known exactly
//     and the frequency set is never materialized;
//   - otherwise the node is revalidated for real, rolling up from its
//     recorded parent or from the patched base-level set.
//
// Every verdict the screen emits is exact, so the delta run's control flow
// — marks, queue order, rollup parents — is identical to a cold run over
// the edited table, and the screened path bumps the same Stats counters at
// the same points. Solutions and Stats are therefore bit-identical to a
// cold recomputation by construction; only the work (rows scanned, nodes
// materialized) shrinks, which DeltaCounters reports separately.
//
// Value strings exist only at the RunState boundary. prepare translates the
// state's base groups into the edited table's dictionary codes, one lookup
// per value per column, and interns each delta row's generalized values
// once per (attribute, level); codeGroups.render turns codes back into
// strings, in the persisted order, when the follow-on state is assembled.
// In between, the patched base set, the per-node delta groups and the root
// frequency sets are keyed by codes, the way relation.FreqSet is.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"incognito/internal/hierarchy"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// captureBandSlack is how far above k the capture threshold starts: groups
// with count < k+captureBandSlack get exact band entries, so deltas moving
// a group by less than the slack screen exactly.
const captureBandSlack = 64

// captureBandCap bounds the band size per node; when more groups fall
// under the threshold, the threshold shrinks until the band fits (screening
// then leans on the floor for the dropped groups).
const captureBandCap = 1024

// nodeRecKey identifies a lattice node across runs and bindings.
func nodeRecKey(dims, levels []int) string {
	b := make([]byte, 0, 4*(len(dims)+len(levels)))
	for i, d := range dims {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	b = append(b, '|')
	for i, l := range levels {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// StateCapture collects NodeRecords as a run checks nodes, for persisting
// as a RunState. Observe is called from the search workers under a mutex;
// Records returns the collection in canonical (dims, levels) order so the
// serialized state is independent of worker scheduling.
type StateCapture struct {
	mu      sync.Mutex
	records []resilience.NodeRecord
}

// Observe captures a NodeRecord for a node whose frequency set f was just
// checked. No-op on a nil capture.
func (c *StateCapture) Observe(in *Input, node *lattice.Node, f *relation.FreqSet) {
	if c == nil {
		return
	}
	rec := buildRecord(in, node.Dims, node.Levels, f)
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// add appends an already-built record (the delta screen's updated records).
func (c *StateCapture) add(rec resilience.NodeRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.records = append(c.records, rec)
	c.mu.Unlock()
}

// Records returns the captured records sorted by (dims, levels).
func (c *StateCapture) Records() []resilience.NodeRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]resilience.NodeRecord(nil), c.records...)
	c.mu.Unlock()
	sortRecords(out)
	return out
}

// sortRecords orders records by nodeRecKey, building each key once.
func sortRecords(recs []resilience.NodeRecord) {
	type keyed struct {
		key string
		rec resilience.NodeRecord
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		ks[i] = keyed{nodeRecKey(r.Dims, r.Levels), r}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		recs[i] = ks[i].rec
	}
}

// buildRecord summarizes a node's frequency set: the exact suppression
// tally, exact counts for every group under the capture threshold (value
// strings, so the record survives dictionary rebuilds), and the minimum
// count among the remaining groups.
func buildRecord(in *Input, dims, levels []int, f *relation.FreqSet) resilience.NodeRecord {
	k := in.K
	thr := k + captureBandSlack
	type cand struct {
		codes []int32
		n     int64
	}
	var cands []cand
	floor := int64(math.MaxInt64)
	f.Each(func(codes []int32, count int64) {
		if count < thr {
			cands = append(cands, cand{codes: append([]int32(nil), codes...), n: count})
		} else if count < floor {
			floor = count
		}
	})
	if len(cands) > captureBandCap {
		sort.Slice(cands, func(i, j int) bool { return cands[i].n < cands[j].n })
		thr = cands[captureBandCap].n
		for _, c := range cands[captureBandCap:] {
			if c.n < floor {
				floor = c.n
			}
		}
		// Ties at the new threshold straddle the cap boundary; keep only
		// the groups strictly under it so the band is downward-closed.
		kept := cands[:0]
		for _, c := range cands[:captureBandCap] {
			if c.n < thr {
				kept = append(kept, c)
			} else if c.n < floor {
				floor = c.n
			}
		}
		cands = kept
	}
	rec := resilience.NodeRecord{
		Dims:    append([]int(nil), dims...),
		Levels:  append([]int(nil), levels...),
		Thr:     thr,
		Floor:   floor,
		TallyLo: f.TuplesBelow(k),
	}
	rec.TallyHi = rec.TallyLo
	for _, c := range cands {
		vals := make([]string, len(dims))
		for i, d := range dims {
			vals[i] = in.QI[d].H.Value(levels[i], c.codes[i])
		}
		rec.Band = append(rec.Band, resilience.BandEntry{V: vals, N: c.n})
	}
	sortBand(rec.Band)
	return rec
}

// cmpVals orders equal-length value tuples elementwise — the band's
// canonical order, chosen so the screen can binary-search a node's band
// without packing keys (the screen runs once per node per delta run, and
// packing every band entry there dominated the delta run's wall clock).
func cmpVals(a, b []string) int {
	for i := range a {
		if c := strings.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpBand(a, b resilience.BandEntry) int { return cmpVals(a.V, b.V) }

func sortBand(band []resilience.BandEntry) {
	if !slices.IsSortedFunc(band, cmpBand) {
		slices.SortFunc(band, cmpBand)
	}
}

// cmpPacked orders two value strings as their length-prefixed encodings
// (4-byte little-endian length, then the bytes) compare bytewise. Unequal
// lengths decide at their lowest-order differing length byte — so 256
// sorts before 1 — and equal lengths by content. The encoding once keyed
// the base groups, and its order, lifted element by element to value
// tuples, remains the persisted order of RunState.Base; this reproduces it
// without building a key.
func cmpPacked(a, b string) int {
	for la, lb := uint32(len(a)), uint32(len(b)); la != lb; la, lb = la>>8, lb>>8 {
		if x, y := byte(la), byte(lb); x != y {
			return cmp.Compare(x, y)
		}
	}
	return strings.Compare(a, b)
}

// packedRanks ranks a dictionary's values in cmpPacked order (ranks[c] is
// code c's position), so code tuples sort like their value tuples with
// integer comparisons only.
func packedRanks(d *relation.Dict) []int32 {
	vals := d.Values()
	order := make([]int32, len(vals))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmpPacked(vals[a], vals[b]) })
	ranks := make([]int32, len(vals))
	for r, c := range order {
		ranks[c] = int32(r)
	}
	return ranks
}

// codeGroups is a full-quasi-identifier base-level frequency set held as
// flat dictionary-code tuples: group i is codes[i*width:(i+1)*width] with
// count counts[i]. Groups are in no particular order.
type codeGroups struct {
	width  int
	codes  []int32
	counts []int64
}

func (g *codeGroups) tuple(i int) []int32 { return g.codes[i*g.width : (i+1)*g.width] }

func (g *codeGroups) add(codes []int32, n int64) {
	g.codes = append(g.codes, codes...)
	g.counts = append(g.counts, n)
}

// render decodes the groups through the base dictionaries of qi into
// value-string groups in RunState.Base order. Value strings exist only
// here, at the output boundary.
func (g *codeGroups) render(qi []QIAttr) []resilience.BaseGroup {
	w := g.width
	ranks := make([][]int32, w)
	for i, q := range qi {
		ranks[i] = packedRanks(q.H.Dict(0))
	}
	order := make([]int32, len(g.counts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		a, b := g.tuple(int(x)), g.tuple(int(y))
		for i, r := range ranks {
			if ra, rb := r[a[i]], r[b[i]]; ra != rb {
				return int(ra - rb)
			}
		}
		return 0
	})
	vals := make([]string, len(g.codes))
	out := make([]resilience.BaseGroup, len(order))
	for j, gi := range order {
		v := vals[j*w : (j+1)*w : (j+1)*w]
		for i, c := range g.tuple(int(gi)) {
			v[i] = qi[i].H.Value(0, c)
		}
		out[j] = resilience.BaseGroup{V: v, N: g.counts[gi]}
	}
	return out
}

// CaptureBase renders the table's base-level frequency set over the full
// quasi-identifier as value-string groups — the persistent mergeable state
// a delta run patches instead of rescanning. It scans the table once,
// outside the run's Stats accounting.
func CaptureBase(in *Input) []resilience.BaseGroup {
	dims := make([]int, len(in.QI))
	for i := range dims {
		dims[i] = i
	}
	f := relation.GroupCount(in.Table, in.cols(dims), nil)
	g := codeGroups{width: len(dims), codes: make([]int32, 0, f.Len()*len(dims)), counts: make([]int64, 0, f.Len())}
	f.Each(g.add)
	return g.render(in.QI)
}

// RunStateOf assembles the persistent state of a completed cold run of in
// under the named algorithm: F0 rendered as value strings (CaptureBase),
// plus every record capture observed.
func RunStateOf(in *Input, capture *StateCapture, algorithm string) *resilience.RunState {
	cols := make([]string, len(in.QI))
	for i, q := range in.QI {
		cols[i] = q.H.Attr()
	}
	return &resilience.RunState{
		Fingerprint: in.Fingerprint(algorithm),
		Cols:        cols,
		K:           in.K,
		MaxSuppress: in.MaxSuppress,
		Rows:        in.Table.NumRows(),
		Base:        CaptureBase(in),
		Records:     capture.Records(),
	}
}

// DeltaRows pre-generalizes full-schema added and removed rows: cols are
// the table columns of the QI attributes and specs their hierarchies. Each
// spec is bound to a scratch dictionary holding exactly the delta rows'
// values, which lets a deleted value generalize even when it no longer
// occurs in the edited table (and so is absent from its dictionaries): the
// level functions are pure functions of the base string, so any binding
// yields the same generalized values.
func DeltaRows(cols []int, specs []*hierarchy.Spec, add, del [][]string) (added, removed []DeltaRow, err error) {
	rows := append(append([][]string(nil), add...), del...)
	if len(rows) == 0 {
		return nil, nil, nil
	}
	out := make([]DeltaRow, len(rows))
	for r := range out {
		out[r].Gen = make([][]string, len(cols))
	}
	for d, col := range cols {
		dict := relation.NewDict()
		for _, row := range rows {
			dict.Encode(row[col])
		}
		h, err := specs[d].Bind(dict)
		if err != nil {
			return nil, nil, fmt.Errorf("attribute %q: %w", specs[d].Attr, err)
		}
		for r, row := range rows {
			gen := make([]string, h.Height()+1)
			for l := 0; l <= h.Height(); l++ {
				g, err := h.GeneralizeValue(l, row[col])
				if err != nil {
					return nil, nil, fmt.Errorf("attribute %q: %w", specs[d].Attr, err)
				}
				gen[l] = g
			}
			out[r].Gen[d] = gen
		}
	}
	return out[:len(add)], out[len(add):], nil
}

// DeltaRow is one added or removed row of a delta, pre-generalized:
// Gen[d][l] is the row's value in QI attribute d at hierarchy level l
// (Gen[d][0] is the base value). Callers compute Gen through the
// hierarchies' level functions, so removed rows whose values no longer
// appear in the edited table's dictionaries generalize exactly like they
// did in the original binding.
type DeltaRow struct {
	Gen [][]string
}

// DeltaCounters reports how much work a delta run actually did, next to
// the replayed Stats (which are bit-identical to a cold run by design and
// therefore say nothing about savings).
type DeltaCounters struct {
	// RowsRescanned counts table rows the delta run genuinely scanned: the
	// delta rows themselves, plus a whole-table equivalent for every root
	// frequency set it had to materialize from the patched base state.
	RowsRescanned int64 `json:"rows_rescanned"`
	// NodesScreened counts checked nodes whose verdict came from a
	// NodeRecord without materializing a frequency set.
	NodesScreened int64 `json:"nodes_screened"`
	// NodesRevalidated counts checked nodes that needed a real frequency
	// set (no record, or the delta left the verdict in doubt).
	NodesRevalidated int64 `json:"nodes_revalidated"`
}

// DeltaRun configures an incremental re-anonymization on Input.Delta: the
// RunState a prior run retained, and the rows added to / removed from the
// table that state describes. The run's Input must hold the edited table;
// only the Basic variant supports delta runs, and memory budgets are
// rejected (Run validates all of this).
type DeltaRun struct {
	State   *resilience.RunState
	Added   []DeltaRow
	Removed []DeltaRow

	st *deltaState
}

// Counters returns the work counters of the last prepared run.
func (d *DeltaRun) Counters() DeltaCounters {
	if d == nil || d.st == nil {
		return DeltaCounters{}
	}
	return DeltaCounters{
		RowsRescanned:    d.st.rowsRescanned.Load(),
		NodesScreened:    d.st.screened.Load(),
		NodesRevalidated: d.st.revalidated.Load(),
	}
}

// BaseGroups returns the patched base-level frequency set as canonical
// value-string groups — the Base of the state describing the edited table.
func (d *DeltaRun) BaseGroups() []resilience.BaseGroup {
	return d.st.f0.render(d.st.qi)
}

// UntouchedRecords returns the prior state's records for nodes this run
// never visited (marked away, or behind a resumed checkpoint), each
// patched with the delta's group contributions so the full output state
// uniformly describes the edited table. Call after the run completes.
func (d *DeltaRun) UntouchedRecords(in *Input) []resilience.NodeRecord {
	st := d.st
	var out []resilience.NodeRecord
	st.mu.Lock()
	touched := st.touched
	st.mu.Unlock()
	for key, rec := range st.records {
		if touched[key] {
			continue
		}
		node := &lattice.Node{Dims: rec.Dims, Levels: rec.Levels}
		upd, _ := updateRecord(rec, st.groupDeltas(node), in.K, in.MaxSuppress)
		out = append(out, upd)
	}
	sortRecords(out)
	return out
}

// deltaState is the runtime of one delta run. Between the RunState it was
// prepared from and the RunState it renders, it holds no value strings
// beyond the interned delta rows: the patched base set is keyed by the
// edited table's dictionary codes.
type deltaState struct {
	records map[string]*resilience.NodeRecord
	qi      []QIAttr
	f0      codeGroups // the patched base-level set

	// The delta rows, interned: rows [0, nAdded) are the added rows, the
	// rest the removed ones. ids[d][l][r] identifies row r's value in QI
	// attribute d at hierarchy level l, and vals[d][l][id] is that value.
	nAdded int
	nRows  int
	ids    [][][]int32
	vals   [][][]string
	// addedOld[r] reports whether added row r's full-QI base-level group
	// existed in the prior table. When it did, every node-level group the
	// row lands in existed too (projection and generalization only merge
	// groups), which turns pure additions to off-band groups into exact
	// no-ops: the old count was ≥ Thr ≥ k, so the new count still is.
	addedOld []bool

	mu      sync.Mutex
	touched map[string]bool

	rowsRescanned atomic.Int64
	screened      atomic.Int64
	revalidated   atomic.Int64
	screenNS      atomic.Int64 // wall time spent in screen, for the search span
}

// baseCoder translates base-level value strings to the edited table's
// dictionary codes. A value the table no longer holds (a deleted row's
// value, say) gets a placeholder code past the end of its dictionary, so
// deletions can still cancel it out; any group left holding a placeholder
// is an error.
type baseCoder struct {
	dicts  []*relation.Dict
	absent []map[string]int32
	extra  [][]string // extra[i][c-dicts[i].Len()] is placeholder c's value
}

func newBaseCoder(qi []QIAttr) *baseCoder {
	b := &baseCoder{
		dicts:  make([]*relation.Dict, len(qi)),
		absent: make([]map[string]int32, len(qi)),
		extra:  make([][]string, len(qi)),
	}
	for i, q := range qi {
		b.dicts[i] = q.H.Dict(0)
	}
	return b
}

func (b *baseCoder) code(i int, v string) int32 {
	if c, ok := b.dicts[i].Code(v); ok {
		return c
	}
	if c, ok := b.absent[i][v]; ok {
		return c
	}
	if b.absent[i] == nil {
		b.absent[i] = make(map[string]int32)
	}
	c := int32(b.dicts[i].Len() + len(b.extra[i]))
	b.absent[i][v] = c
	b.extra[i] = append(b.extra[i], v)
	return c
}

// placeholder reports whether c stands for a value absent from column i.
func (b *baseCoder) placeholder(i int, c int32) bool { return int(c) >= b.dicts[i].Len() }

func (b *baseCoder) value(i int, c int32) string {
	if b.placeholder(i, c) {
		return b.extra[i][int(c)-b.dicts[i].Len()]
	}
	return b.dicts[i].Value(c)
}

// packCodes writes codes into buf as a map key (4 bytes per code).
func packCodes(buf []byte, codes []int32) []byte {
	buf = buf[:0]
	for _, c := range codes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// prepare validates the state against the input and builds the runtime:
// the record index, the interned delta rows, and the patched base-level
// set encoded against the edited table's dictionaries.
func (d *DeltaRun) prepare(in *Input) error {
	st := d.State
	if st == nil {
		return fmt.Errorf("core: delta run has no prior state")
	}
	sp := in.StartSpan("delta.prepare")
	defer sp.End()
	sp.SetAttr("base_groups", len(st.Base))
	sp.SetAttr("added", len(d.Added))
	sp.SetAttr("removed", len(d.Removed))
	if st.K != in.K || st.MaxSuppress != in.MaxSuppress {
		return fmt.Errorf("core: saved state has k=%d, suppress=%d; this run has k=%d, suppress=%d",
			st.K, st.MaxSuppress, in.K, in.MaxSuppress)
	}
	w := len(in.QI)
	if len(st.Cols) != w {
		return fmt.Errorf("core: saved state covers %d QI attributes, this run has %d", len(st.Cols), w)
	}
	// Records are keyed by lattice node, so a state is only valid in the
	// lattice the heights span.
	if len(st.Fingerprint.Heights) != w {
		return fmt.Errorf("core: saved state records %d hierarchy heights for %d QI attributes",
			len(st.Fingerprint.Heights), w)
	}
	for i, q := range in.QI {
		if st.Cols[i] != q.H.Attr() {
			return fmt.Errorf("core: saved state QI attribute %d is %q, this run has %q", i, st.Cols[i], q.H.Attr())
		}
		if h := st.Fingerprint.Heights[i]; h != q.H.Height() {
			return fmt.Errorf("core: saved state has attribute %q under a hierarchy of height %d, this run's has height %d",
				q.H.Attr(), h, q.H.Height())
		}
	}
	if want := st.Rows + len(d.Added) - len(d.Removed); want != in.Table.NumRows() {
		return fmt.Errorf("core: saved state covers %d rows and the delta nets %+d, but the table has %d rows",
			st.Rows, len(d.Added)-len(d.Removed), in.Table.NumRows())
	}
	rows := make([]DeltaRow, 0, len(d.Added)+len(d.Removed))
	rows = append(append(rows, d.Added...), d.Removed...)
	for _, r := range rows {
		if len(r.Gen) != w {
			return fmt.Errorf("core: delta row generalizes %d attributes, the QI has %d", len(r.Gen), w)
		}
		for i, q := range in.QI {
			if len(r.Gen[i]) != q.H.NumLevels() {
				return fmt.Errorf("core: delta row generalizes %s to %d levels, its hierarchy has %d",
					q.H.Attr(), len(r.Gen[i]), q.H.NumLevels())
			}
		}
	}
	for _, g := range st.Base {
		if len(g.V) != w {
			return fmt.Errorf("core: saved state base group %v has %d values, the QI has %d", g.V, len(g.V), w)
		}
	}
	rt := &deltaState{
		records: make(map[string]*resilience.NodeRecord, len(st.Records)),
		qi:      in.QI,
		nAdded:  len(d.Added),
		nRows:   len(rows),
		touched: make(map[string]bool),
	}
	for i := range st.Records {
		rec := &st.Records[i]
		// Restore the canonical band order: the screen binary-searches it,
		// and a state file may predate the current comparator.
		sortBand(rec.Band)
		rt.records[nodeRecKey(rec.Dims, rec.Levels)] = rec
	}
	rt.internRows(in, rows)
	if err := rt.patchBase(in, st.Base); err != nil {
		return err
	}
	if err := checkMarginals(in, &rt.f0); err != nil {
		return err
	}
	rt.rowsRescanned.Store(int64(len(rows)))
	d.st = rt
	return nil
}

// patchBase builds the patched base-level set: the state's groups plus
// ±1 per delta row, pruned at zero, in the edited table's codes. It folds
// the delta rows into net per-group changes first, then streams the
// state's groups past them, so a state group costs one dictionary lookup
// per column and one probe of the small change index — never a key of its
// own. It also fills addedOld.
func (st *deltaState) patchBase(in *Input, base []resilience.BaseGroup) error {
	w := len(in.QI)
	coder := newBaseCoder(in.QI)
	// Each delta row's base-level codes, one lookup per distinct value.
	rowCodes := make([]int32, st.nRows*w)
	for i := 0; i < w; i++ {
		valCodes := make([]int32, len(st.vals[i][0]))
		for id, v := range st.vals[i][0] {
			valCodes[id] = coder.code(i, v)
		}
		for r, id := range st.ids[i][0] {
			rowCodes[r*w+i] = valCodes[id]
		}
	}
	type change struct {
		codes []int32
		net   int64
		at    int // index of the matching state group, or -1
	}
	var changes []change
	index := make(map[string]int, st.nRows)
	rowChange := make([]int, st.nRows)
	buf := make([]byte, 0, 4*w)
	for r := range rowChange {
		codes := rowCodes[r*w : (r+1)*w]
		key := packCodes(buf, codes)
		j, ok := index[string(key)]
		if !ok {
			j = len(changes)
			index[string(key)] = j
			changes = append(changes, change{codes: codes, at: -1})
		}
		if r < st.nAdded {
			changes[j].net++
		} else {
			changes[j].net--
		}
		rowChange[r] = j
	}
	f0 := codeGroups{width: w, codes: make([]int32, len(base)*w, (len(base)+len(changes))*w), counts: make([]int64, len(base), len(base)+len(changes))}
	for gi, g := range base {
		codes := f0.tuple(gi)
		for i, v := range g.V {
			codes[i] = coder.code(i, v)
		}
		f0.counts[gi] = g.N
		if len(changes) > 0 {
			if j, ok := index[string(packCodes(buf, codes))]; ok && changes[j].at < 0 {
				changes[j].at = gi
			}
		}
	}
	st.addedOld = make([]bool, st.nAdded)
	for r := range st.addedOld {
		st.addedOld[r] = changes[rowChange[r]].at >= 0
	}
	for _, c := range changes {
		if c.at >= 0 {
			f0.counts[c.at] += c.net
		} else {
			f0.add(c.codes, c.net)
		}
	}

	for gi, n := range f0.counts {
		if n < 0 {
			vals := make([]string, w)
			for i, c := range f0.tuple(gi) {
				vals[i] = coder.value(i, c)
			}
			return fmt.Errorf("core: delta removes more %v rows than the saved state holds%s", vals, utf8Note(vals...))
		}
	}
	kept := 0
	var total int64
	for gi, n := range f0.counts {
		if n == 0 {
			continue
		}
		codes := f0.tuple(gi)
		for i, c := range codes {
			if coder.placeholder(i, c) {
				v := coder.value(i, c)
				return fmt.Errorf("core: saved state group value %q is absent from the edited table%s", v, utf8Note(v))
			}
		}
		copy(f0.codes[kept*w:], codes)
		f0.counts[kept] = n
		kept++
		total += n
	}
	f0.codes, f0.counts = f0.codes[:kept*w], f0.counts[:kept]
	if total != int64(in.Table.NumRows()) {
		return fmt.Errorf("core: patched base state covers %d rows, the edited table has %d — the state does not describe this table",
			total, in.Table.NumRows())
	}
	st.f0 = f0
	return nil
}

// checkMarginals compares, column by column, how many rows of the patched
// base set hold each value with how many rows of the edited table do. A
// state captured from a different table of the same size fails here,
// naming a value whose count differs. One pass over each column's codes.
func checkMarginals(in *Input, f0 *codeGroups) error {
	for i, q := range in.QI {
		table := make([]int64, q.H.LevelSize(0))
		for _, c := range in.Table.Codes(q.Col) {
			table[c]++
		}
		state := make([]int64, len(table))
		for gi, n := range f0.counts {
			state[f0.codes[gi*f0.width+i]] += n
		}
		for c := range table {
			if table[c] != state[c] {
				v := q.H.Value(0, int32(c))
				return fmt.Errorf("core: saved state holds %d rows with %s = %q, the edited table has %d — the state does not describe this table%s",
					state[c], q.H.Attr(), v, table[c], utf8Note(v))
			}
		}
	}
	return nil
}

// utf8Note explains a mismatch over a value that holds U+FFFD or bytes
// that are not valid UTF-8: a state file cannot carry such bytes, so the
// state may be right and the file lossy.
func utf8Note(vals ...string) string {
	for _, v := range vals {
		if strings.ContainsRune(v, utf8.RuneError) {
			return "; state files store values as JSON strings, so bytes that were not valid UTF-8 were saved as U+FFFD" +
				" (in-memory states, in the daemon or chained through DeltaResult.State(), are unaffected)"
		}
	}
	return ""
}

// internRows interns every delta row's generalized value once per
// (attribute, level), so the per-node grouping keys rows by small IDs.
func (st *deltaState) internRows(in *Input, rows []DeltaRow) {
	st.ids = make([][][]int32, len(in.QI))
	st.vals = make([][][]string, len(in.QI))
	for d, q := range in.QI {
		nl := q.H.NumLevels()
		st.ids[d] = make([][]int32, nl)
		st.vals[d] = make([][]string, nl)
		flat := make([]int32, nl*len(rows))
		for l := 0; l < nl; l++ {
			ids := flat[l*len(rows) : (l+1)*len(rows)]
			seen := make(map[string]int32)
			var vals []string
			for r, row := range rows {
				v := row.Gen[d][l]
				id, ok := seen[v]
				if !ok {
					id = int32(len(vals))
					seen[v] = id
					vals = append(vals, v)
				}
				ids[r] = id
			}
			st.ids[d][l], st.vals[d][l] = ids, vals
		}
	}
}

// gdelta is the net contribution of the delta rows to one group of a node.
type gdelta struct {
	vals []string // the group's generalized value tuple
	add  int64
	del  int64
	// pre reports the group provably existed in the prior table: some
	// added row landing in it had a pre-existing base-level group (see
	// deltaState.addedOld). Deletions imply existence on their own.
	pre bool
	row int // a delta row in the group, which renders vals
}

// groupDeltas folds the delta rows into per-group contributions at the
// node's generalization, keyed by the rows' interned value IDs. All row
// keys live in one string, so a new group costs no key allocation.
func (st *deltaState) groupDeltas(node *lattice.Node) []gdelta {
	n := len(node.Dims)
	cols := make([][]int32, n)
	for i, d := range node.Dims {
		cols[i] = st.ids[d][node.Levels[i]]
	}
	var b strings.Builder
	b.Grow(4 * n * st.nRows)
	var id [4]byte
	for r := 0; r < st.nRows; r++ {
		for _, ids := range cols {
			binary.LittleEndian.PutUint32(id[:], uint32(ids[r]))
			b.Write(id[:])
		}
	}
	keys := b.String()
	index := make(map[string]int)
	var out []gdelta
	for r := 0; r < st.nRows; r++ {
		key := keys[4*n*r : 4*n*(r+1)]
		j, ok := index[key]
		if !ok {
			j = len(out)
			index[key] = j
			out = append(out, gdelta{row: r})
		}
		g := &out[j]
		if r < st.nAdded {
			g.add++
			if st.addedOld[r] {
				g.pre = true
			}
		} else {
			g.del++
		}
	}
	vals := make([]string, len(out)*n)
	for j := range out {
		v := vals[j*n : (j+1)*n : (j+1)*n]
		for i, d := range node.Dims {
			v[i] = st.vals[d][node.Levels[i]][cols[i][out[j].row]]
		}
		out[j].vals = v
	}
	return out
}

// Verdicts of updateRecord.
const (
	verdictUnknown = iota
	verdictPass
	verdictFail
)

// updateRecord applies per-group delta contributions to a node's record,
// returning the record describing the edited table plus the k-anonymity
// verdict when the updated tally bounds decide it. Band hits update
// exactly; groups covered only by the floor widen the tally bounds by the
// worst case a group near k can contribute. All updates are commutative,
// so the order of deltas cannot change the result.
func updateRecord(rec *resilience.NodeRecord, deltas []gdelta, k, maxSuppress int64) (resilience.NodeRecord, int) {
	contrib := func(x int64) int64 {
		if x > 0 && x < k {
			return x
		}
		return 0
	}
	// The band is kept sorted by cmpVals, so each delta group resolves by
	// binary search — no per-node key packing or map build. Count edits
	// never reorder it, and it is copied only once an entry changes.
	band, copied := rec.Band, false
	inBand := func(vals []string) int {
		i, found := slices.BinarySearchFunc(band, vals, func(e resilience.BandEntry, v []string) int { return cmpVals(e.V, v) })
		if !found {
			return -1
		}
		return i
	}
	lo, hi := int64(0), int64(0)
	floor := rec.Floor
	inconsistent := false
	for i := range deltas {
		gd := &deltas[i]
		delta := gd.add - gd.del
		if j := inBand(gd.vals); j >= 0 {
			old := band[j].N
			nn := old + delta
			if nn < 0 {
				inconsistent = true
				nn = 0
			}
			ch := contrib(nn) - contrib(old)
			lo += ch
			hi += ch
			if nn != old {
				if !copied {
					band, copied = slices.Clone(band), true
				}
				band[j].N = nn
			}
			continue
		}
		if gd.del > 0 {
			// The group existed (rows were removed from it) but is not in
			// the band, so its old count is at least Floor ≥ Thr.
			if rec.Floor == math.MaxInt64 {
				inconsistent = true
				continue
			}
			switch {
			case rec.Floor >= k && rec.Floor+delta >= k:
				// Old and new counts both provably ≥ k: tally unchanged.
				if f := rec.Floor + delta; f < floor {
					floor = f
				}
			case rec.Floor >= k:
				hi += k - 1
				floor = 1
			default:
				lo -= k - 1
				hi += k - 1
				floor = 1
			}
			continue
		}
		// Pure additions to a group that is either new or above the band.
		if gd.pre && rec.Floor != math.MaxInt64 {
			// The group provably pre-existed; off the band, its old count
			// was ≥ Thr ≥ k, so old and new counts both contribute nothing
			// to the tally and the new count exceeds the old Floor. Exact.
			continue
		}
		switch {
		case rec.Floor >= k && delta >= k:
			// New count is ≥ k whether the group existed or not.
			if delta < floor {
				floor = delta
			}
		case rec.Floor >= k:
			hi += delta // a brand-new group of `delta` undersized tuples
			if delta < floor {
				floor = delta
			}
		default:
			lo -= k - 1
			hi += min64(delta, k-1)
			if delta < floor {
				floor = delta
			}
		}
	}
	upd := resilience.NodeRecord{
		Dims:    append([]int(nil), rec.Dims...),
		Levels:  append([]int(nil), rec.Levels...),
		Thr:     rec.Thr,
		Floor:   floor,
		TallyLo: rec.TallyLo + lo,
		TallyHi: rec.TallyHi + hi,
	}
	if upd.TallyLo < 0 {
		upd.TallyLo = 0
	}
	if slices.ContainsFunc(band, func(e resilience.BandEntry) bool { return e.N == 0 }) {
		if !copied {
			band = slices.Clone(band)
		}
		band = slices.DeleteFunc(band, func(e resilience.BandEntry) bool { return e.N == 0 })
	}
	upd.Band = band
	verdict := verdictUnknown
	if !inconsistent {
		switch {
		case upd.TallyHi <= maxSuppress:
			verdict = verdictPass
		case upd.TallyLo > maxSuppress:
			verdict = verdictFail
		}
	}
	return upd, verdict
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// screen attempts to decide a node's k-anonymity verdict on the edited
// table from its record alone. ok reports whether the verdict is exact; a
// false ok means the caller must revalidate (no record, or the tally
// bounds straddle the threshold). On success the updated record is fed to
// the input's capture, so the new state reflects the edited table.
func (st *deltaState) screen(in *Input, node *lattice.Node) (pass, ok bool) {
	start := time.Now()
	defer func() { st.screenNS.Add(int64(time.Since(start))) }()
	key := nodeRecKey(node.Dims, node.Levels)
	rec := st.records[key]
	if rec == nil {
		return false, false
	}
	upd, verdict := updateRecord(rec, st.groupDeltas(node), in.K, in.MaxSuppress)
	if verdict == verdictUnknown {
		return false, false
	}
	st.mu.Lock()
	st.touched[key] = true
	st.mu.Unlock()
	in.Capture.add(upd)
	st.screened.Add(1)
	return verdict == verdictPass, true
}

// noteRevalidated marks a node as freshly measured this run: its old
// record (if any) is superseded by the capture's Observe, not reconciled.
func (st *deltaState) noteRevalidated(node *lattice.Node) {
	st.mu.Lock()
	st.touched[nodeRecKey(node.Dims, node.Levels)] = true
	st.mu.Unlock()
	st.revalidated.Add(1)
}

// rootFromF0 builds a root node's frequency set by rolling the patched
// base-level set up to the node's generalization — the delta substitute
// for a base-table scan, identical by the rollup property. The kernel
// choice mirrors what a real scan of the table would pick, so downstream
// behavior cannot depend on how the set was produced.
func (st *deltaState) rootFromF0(in *Input, n *lattice.Node) *relation.FreqSet {
	cols := in.cols(n.Dims)
	card := in.cardAt(n.Dims, n.Levels)
	var f *relation.FreqSet
	if card != nil && relation.DenseEligible(card, in.Table.NumRows()) {
		f = relation.NewFreqSetWithCard(cols, card)
	} else {
		f = relation.NewFreqSet(cols)
	}
	maps := in.recodeTables(n.Dims, n.Levels)
	codes := make([]int32, len(n.Dims))
	for gi, count := range st.f0.counts {
		e := st.f0.tuple(gi)
		for i, d := range n.Dims {
			c := e[d]
			if m := maps[i]; m != nil {
				c = m[c]
			}
			codes[i] = c
		}
		f.Add(codes, count)
	}
	st.rowsRescanned.Add(int64(in.Table.NumRows()))
	return f
}

// force materializes the frequency set of a screened-failed node whose set
// was deferred (freqs holds nil): it walks the rollup-parent chain down to
// a root, builds the root from the patched base state, and rolls back up,
// filling freqs along the way. This work re-derives what the replayed
// Stats already charged for, so it is deliberately uncounted there.
func (st *deltaState) force(in *Input, g *lattice.Graph, parentOf map[int]int, freqs map[int]*relation.FreqSet, n *lattice.Node) *relation.FreqSet {
	if f, ok := freqs[n.ID]; ok && f != nil {
		return f
	}
	var f *relation.FreqSet
	if pid, ok := parentOf[n.ID]; ok {
		parent := g.Node(pid)
		pf := freqs[pid]
		if pf == nil {
			pf = st.force(in, g, parentOf, freqs, parent)
		}
		f = in.RollupTo(pf, n.Dims, parent.Levels, n.Levels)
	} else {
		f = st.rootFromF0(in, n)
	}
	if _, tracked := freqs[n.ID]; tracked {
		freqs[n.ID] = f
	}
	return f
}
