package core

// This file implements incremental re-anonymization. A completed run can
// capture a RunState: one NodeRecord per checked lattice node (exact
// counts for the groups near k, a floor for the rest, and bounds on the
// suppression tally), plus digests of the table's generalization chains. A
// later delta run — the same table edited by a small set of added/removed
// rows — replays the Basic search over the new table but answers most
// k-anonymity checks from the records instead of computing frequency sets:
//
//   - every delta row's contribution to a node's groups is known exactly
//     from the record's band, or bounded by its floor;
//   - when the resulting tally bounds stay on one side of the suppression
//     threshold, the node's verdict on the edited table is known exactly
//     and the frequency set is never materialized;
//   - otherwise the node is revalidated for real, rolling up from its
//     recorded parent or scanning the edited table for a root, as a cold
//     run does.
//
// Every verdict the screen emits is exact, so the delta run's control flow
// — marks, queue order, rollup parents — is identical to a cold run over
// the edited table, and the screened path bumps the same Stats counters at
// the same points. Solutions and Stats are therefore bit-identical to a
// cold recomputation by construction; only the work (rows scanned, nodes
// materialized) shrinks, which DeltaCounters reports separately.
//
// The state keeps nothing the edited table can give back. prepare reads
// off that table whether each added row's tuple existed before, and checks
// the state's chain digests against the table's less the delta's, which
// proves the records describe this table under these hierarchies. Value
// strings appear only in the records' bands and the interned delta rows.

import (
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

// RunStateOf assembles the persistent state of a completed cold run of in
// under the named algorithm: every record capture observed, plus the chain
// digests of the table the run read.
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
		Digests:     tableDigests(in),
		Records:     capture.Records(),
	}
}

// The chain digests of RunState.Digests. A row's chain in QI attribute i
// is its value at every level of the attribute's hierarchy, base first:
// the strings Hierarchy.Value gives, which DeltaRow.Gen[i] holds too. The
// hashes are built from FNV-1a over a value's bytes and mix, the
// splitmix64 finalizer:
//
//	chain hash of attribute i:  h = mix(i + seed), then h = mix(h ^ fnv1a(v)) for each level value v
//	row hash:                   r = seed, then r = mix(r ^ h_i) for each attribute i
//
// with seed = 0x9e3779b97f4a7c15. Digests[i] sums h_i over the table's
// rows and Digests[w] sums r, modulo 2^64. The row hash is no sum of the
// chain hashes, so it pins how the attributes' values occur together.
// These definitions are part of the state file format.
const digestSeed = 0x9e3779b97f4a7c15

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func valueHash(v string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= 1099511628211
	}
	return h
}

func chainStart(attr int) uint64       { return mix(uint64(attr) + digestSeed) }
func chainStep(h, value uint64) uint64 { return mix(h ^ value) }
func rowStep(r, chain uint64) uint64   { return mix(r ^ chain) }

// chainHashes returns, for each QI attribute, the chain hash of every base
// code: each level's dictionary values are hashed once and combined per
// base code through MapTo.
func chainHashes(qi []QIAttr) [][]uint64 {
	out := make([][]uint64, len(qi))
	for i, q := range qi {
		chains := make([]uint64, q.H.LevelSize(0))
		for b := range chains {
			chains[b] = chainStart(i)
		}
		for l := 0; l < q.H.NumLevels(); l++ {
			vals := q.H.Dict(l).Values()
			hashes := make([]uint64, len(vals))
			for c, v := range vals {
				hashes[c] = valueHash(v)
			}
			m := q.H.MapTo(l)
			for b := range chains {
				c := int32(b)
				if m != nil {
					c = m[b]
				}
				chains[b] = chainStep(chains[b], hashes[c])
			}
		}
		out[i] = chains
	}
	return out
}

// tableDigests returns the chain digests of in.Table.
func tableDigests(in *Input) []uint64 { return digestTable(in, chainHashes(in.QI), nil) }

// digestTable sums the chain digests of in.Table in one pass over its QI
// codes, allocating nothing per row, and has probes (when non-nil) count
// the rows holding each of its tuples.
func digestTable(in *Input, chains [][]uint64, probes *tupleProbes) []uint64 {
	w := len(in.QI)
	sums := make([]uint64, w+1)
	cols := make([][]int32, w)
	for i, q := range in.QI {
		cols[i] = in.Table.Codes(q.Col)
	}
	for r := range in.Table.NumRows() {
		row := uint64(digestSeed)
		for i, codes := range cols {
			h := chains[i][codes[r]]
			sums[i] += h
			row = rowStep(row, h)
		}
		sums[w] += row
		if probes != nil {
			probes.observe(row, cols, r)
		}
	}
	return sums
}

// tupleProbes counts the rows of a table that hold each of a few full-QI
// base tuples. A row finds its candidates by its row hash; its codes
// settle a collision.
type tupleProbes struct {
	w      int
	codes  []int32 // tuple j is codes[j*w:(j+1)*w]
	rows   []int64 // rows[j] counts the rows holding tuple j
	next   []int32 // the next tuple with tuple j's row hash, or -1
	byHash map[uint64]int32
}

func (p *tupleProbes) add(codes []int32, hash uint64) {
	j := int32(len(p.rows))
	p.codes = append(p.codes, codes...)
	p.rows = append(p.rows, 0)
	next, ok := p.byHash[hash]
	if !ok {
		next = -1
	}
	p.next = append(p.next, next)
	p.byHash[hash] = j
}

func (p *tupleProbes) observe(hash uint64, cols [][]int32, r int) {
	j, ok := p.byHash[hash]
	if !ok {
		return
	}
next:
	for ; j >= 0; j = p.next[j] {
		for i, codes := range cols {
			if codes[r] != p.codes[int(j)*p.w+i] {
				continue next
			}
		}
		p.rows[j]++
		return
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
	// delta rows themselves, plus the whole edited table for every root
	// frequency set it had to build. The pass prepare makes over the
	// table's codes to check the state's digests is not counted: it builds
	// no frequency set.
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

// Digests returns the chain digests of the edited table — the Digests of
// the state describing it. Call after the run is prepared.
func (d *DeltaRun) Digests() []uint64 { return d.st.digests }

// UntouchedRecords returns the prior state's records for nodes this run
// never screened or revalidated (marked away, or answered from a resumed
// checkpoint's verdicts), each patched with the delta's group contributions
// so the full output state uniformly describes the edited table. Call after
// the run completes.
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

// deltaState is the runtime of one delta run: the prior state's records,
// the interned delta rows, and what prepare read off the edited table.
type deltaState struct {
	records map[string]*resilience.NodeRecord
	digests []uint64 // the edited table's chain digests

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
	// no-ops: the old count was ≥ Thr ≥ k, so the new count still is. The
	// prior count is the edited table's count less the delta's net change.
	addedOld []bool

	mu      sync.Mutex
	touched map[string]bool

	rowsRescanned atomic.Int64
	screened      atomic.Int64
	revalidated   atomic.Int64
	screenNS      atomic.Int64 // wall time spent in screen, for the search span
}

// prepare validates the state against the input and builds the runtime:
// the record index and the interned delta rows. It proves the state
// describes the edited table and its hierarchies by their chain digests
// (see verify).
func (d *DeltaRun) prepare(in *Input) error {
	st := d.State
	if st == nil {
		return fmt.Errorf("core: delta run has no prior state")
	}
	sp := in.StartSpan("delta.prepare")
	defer sp.End()
	sp.SetAttr("state_rows", st.Rows)
	sp.SetAttr("added", len(d.Added))
	sp.SetAttr("removed", len(d.Removed))
	if st.Lossy() {
		// A band entry may have lost the bytes that named its group, and
		// no digest covers band entries.
		return fmt.Errorf("core: saved state cannot be used: state files store values as JSON strings, so bytes that were not valid UTF-8 were saved as U+FFFD" +
			" (in-memory states, in the daemon or chained through DeltaResult.State(), are unaffected)")
	}
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
	if len(st.Digests) != w+1 {
		return fmt.Errorf("core: saved state carries %d chain digests for %d QI attributes, want %d", len(st.Digests), w, w+1)
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
	rt := &deltaState{
		records: make(map[string]*resilience.NodeRecord, len(st.Records)),
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
	if err := rt.verify(in, st.Digests); err != nil {
		return err
	}
	rt.rowsRescanned.Store(int64(len(rows)))
	d.st = rt
	return nil
}

// verify proves that the state's digests describe the edited table less
// the added rows plus the removed ones, and fills digests and addedOld.
// The delta rows' chains are hashed from their interned values; one pass
// over the table's QI codes sums its chain digests and counts the rows
// holding each added row's full-QI tuple. A refusal names the first
// attribute whose digest differs: its values, or how its hierarchy
// generalizes them, are not those the state was captured under.
func (st *deltaState) verify(in *Input, want []uint64) error {
	w := len(in.QI)
	// prior accumulates −Σ added + Σ removed; the table's sums come last.
	prior := make([]uint64, w+1)
	rowHash := make([]uint64, st.nRows)
	hashes := make([][][]uint64, w) // hashes[i][l][id] hashes interned value id
	for i := range hashes {
		hashes[i] = make([][]uint64, len(st.vals[i]))
		for l, vals := range st.vals[i] {
			hashes[i][l] = make([]uint64, len(vals))
			for id, v := range vals {
				hashes[i][l][id] = valueHash(v)
			}
		}
	}
	for r := range st.nRows {
		sign := uint64(1)
		if r < st.nAdded {
			sign = ^uint64(0) // −1 modulo 2^64
		}
		row := uint64(digestSeed)
		for i := range hashes {
			h := chainStart(i)
			for l, ids := range st.ids[i] {
				h = chainStep(h, hashes[i][l][ids[r]])
			}
			prior[i] += sign * h
			row = rowStep(row, h)
		}
		prior[w] += sign * row
		rowHash[r] = row
	}

	// The added rows' distinct tuples, each with its net count in the
	// delta and its codes in the edited table, where the pass counts it.
	all, base := make([]int, w), make([]int, w)
	for i := range all {
		all[i] = i
	}
	keys := st.rowKeys(all, base)
	index := make(map[string]int32, st.nAdded)
	group := make([]int32, st.nAdded)
	var net []int64
	var probes *tupleProbes
	if st.nAdded > 0 {
		probes = &tupleProbes{w: w, byHash: make(map[uint64]int32, st.nAdded)}
	}
	codes := make([]int32, w)
	for r := range st.nRows {
		key := keys[4*w*r : 4*w*(r+1)]
		j, ok := index[key]
		switch {
		case r < st.nAdded && !ok:
			j = int32(len(net))
			index[key] = j
			net = append(net, 0)
			for i, q := range in.QI {
				c, found := q.H.Dict(0).Code(st.vals[i][0][st.ids[i][0][r]])
				if !found {
					c = -1 // absent from the table: no row matches, and the digests refuse the state
				}
				codes[i] = c
			}
			probes.add(codes, rowHash[r])
			fallthrough
		case r < st.nAdded:
			net[j]++
			group[r] = j
		case ok:
			net[j]--
		}
	}
	st.digests = digestTable(in, chainHashes(in.QI), probes)

	for i, d := range st.digests {
		prior[i] += d
	}
	for i, q := range in.QI {
		if prior[i] != want[i] {
			return fmt.Errorf("core: saved state does not describe this table: attribute %q holds other values, or its hierarchy generalizes them differently, than when the state was captured",
				q.H.Attr())
		}
	}
	if prior[w] != want[w] {
		return fmt.Errorf("core: saved state does not describe this table: each attribute's values match, but the attributes' joint distribution differs")
	}
	st.addedOld = make([]bool, st.nAdded)
	for r, j := range group {
		st.addedOld[r] = probes.rows[j]-net[j] > 0
	}
	return nil
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
	keys := st.rowKeys(node.Dims, node.Levels)
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
			l := node.Levels[i]
			v[i] = st.vals[d][l][st.ids[d][l][out[j].row]]
		}
		out[j].vals = v
	}
	return out
}

// rowKeys packs every delta row's interned value IDs at the given levels
// of dims into one string, 4 bytes per attribute, row after row; row r's
// key is the r-th slice of 4·len(dims) bytes. One string holds them all,
// so a new group costs no key allocation.
func (st *deltaState) rowKeys(dims, levels []int) string {
	var b strings.Builder
	b.Grow(4 * len(dims) * st.nRows)
	var id [4]byte
	for r := 0; r < st.nRows; r++ {
		for i, d := range dims {
			binary.LittleEndian.PutUint32(id[:], uint32(st.ids[d][levels[i]][r]))
			b.Write(id[:])
		}
	}
	return b.String()
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
