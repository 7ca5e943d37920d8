package relation

import (
	"encoding/binary"
	"fmt"
	"sort"

	"incognito/internal/faultinject"
	"incognito/internal/resilience"
	"incognito/internal/sched"
)

// FreqSet is the frequency set of a table with respect to a set of columns
// (§1.1): a mapping from each distinct value group to the number of tuples
// carrying it. A FreqSet built by a scan holds only positive counts, but
// Add and AddFrom accept negative contributions. What is invariant is
// zero-pruning, not non-negativity: a group whose count reaches zero does
// not exist — bump, bumpDense, and AddFrom all remove (or never create)
// zero-count groups, so Each, Len, and EachSorted never report one and
// both representations always agree on which groups exist.
//
// Two representations back a FreqSet, chosen adaptively:
//
//   - sparse: a map from packed code keys (4 bytes per column) to counts —
//     works for any code vectors, including the folded level<<24|code keys
//     internal/recoding uses;
//   - dense: a flat []int64 indexed by a mixed-radix composite code, used
//     when every column's cardinality is known and the radix product is at
//     most DenseMaxCells. Full-domain generalization shrinks domains, so at
//     generalized levels most frequency sets take this form — array
//     counting instead of hash probing, the dense-cube representation of
//     §3.2's Cube Incognito.
//
// The two representations are observably identical: Add, Count, Each,
// EachSorted, AddFrom, RecodeWithCard, DropColumn, Total, MinCount,
// TuplesBelow, and IsKAnonymous behave the same on both, and a dense set
// converts to sparse transparently if it is ever handed a code outside its
// declared cardinalities.
//
// A FreqSet is created in exactly two ways, mirroring the paper:
//
//   - GroupCount or GroupCountParallelSched — one scan of the base table
//     (the SQL COUNT(*) group-by);
//   - RecodeWithCard / DropColumn on an existing FreqSet — a SUM(count)
//     rollup.
//
// A FreqSet is not safe for concurrent mutation; the parallel scan path
// builds one private FreqSet per worker and merges them with AddFrom.
type FreqSet struct {
	// Cols are the source-table column positions the groups range over.
	Cols []int
	// card, when non-nil, bounds each column's codes: column i only holds
	// codes in [0, card[i]). It is metadata, kept even when the set is
	// sparse (the radix product may be too large for the dense form while a
	// rollup of this set still fits).
	card []int32
	// Sparse representation (non-nil iff dense is nil).
	groups map[string]*int64
	// Dense representation: dense[Σ codes[i]·stride[i]] is the group count;
	// stride[i] is the product of card[i+1:] (row-major mixed radix), so the
	// natural array order is the lexicographic code order.
	dense   []int64
	stride  []int64
	nonzero int // distinct non-zero cells of dense
}

// DenseMaxCells is the largest mixed-radix cell count (product of
// per-column cardinalities) the dense representation is used for: 2^22
// cells, i.e. a 32 MiB count array. Above it the sparse map wins on both
// memory and the O(cells) iteration passes.
const DenseMaxCells = 1 << 22

// DenseMinCells is the cell count below which the dense representation is
// always worth it regardless of input size — the array is smaller than the
// map's fixed overhead would be.
const DenseMinCells = 1 << 12

// DenseCellsPerUnit bounds how much larger than its input a dense layout
// may be: a scan of n rows (or a rollup of n source groups) uses the dense
// array only when the cell count is at most DenseCellsPerUnit×n. Beyond
// that the array's allocation, zeroing, and O(cells) iteration passes cost
// more than the hashing they replace.
const DenseCellsPerUnit = 8

// cardCells validates ncols per-column cardinality bounds and returns the
// mixed-radix cell count (the multiplication stops growing past
// DenseMaxCells, so it cannot overflow).
func cardCells(ncols int, card []int) (int64, bool) {
	if len(card) != ncols || ncols == 0 {
		return 0, false
	}
	cells := int64(1)
	for _, c := range card {
		if c <= 0 || c > 1<<31-1 {
			return 0, false
		}
		if cells <= DenseMaxCells {
			cells *= int64(c)
		}
	}
	return cells, true
}

// DenseEligible reports whether the adaptive kernel chooses the dense
// representation for a layout with the given cardinalities filled from
// `workload` input units (table rows for a scan, source groups for a
// rollup): valid bounds, at most DenseMaxCells cells, and at most
// max(DenseMinCells, DenseCellsPerUnit×workload) cells.
func DenseEligible(card []int, workload int) bool {
	cells, ok := cardCells(len(card), card)
	return ok && cells <= DenseMaxCells && cells <= maxCellsFor(workload)
}

func maxCellsFor(workload int) int64 {
	limit := int64(workload) * DenseCellsPerUnit
	if limit < DenseMinCells {
		return DenseMinCells
	}
	return limit
}

// maxStackKeyCols is the quasi-identifier width (in columns) up to which
// Add and Count pack group keys into a stack buffer instead of allocating.
const maxStackKeyCols = 16

// NewFreqSet returns an empty sparse frequency set over the given columns,
// with unknown cardinalities.
func NewFreqSet(cols []int) *FreqSet {
	return &FreqSet{Cols: append([]int(nil), cols...), groups: make(map[string]*int64)}
}

// NewFreqSetWithCard returns an empty frequency set over the given columns
// whose codes are bounded by the per-column cardinalities card (codes of
// column i lie in [0, card[i])). The representation is chosen adaptively:
// dense mixed-radix array counting when the radix product is at most
// DenseMaxCells, the sparse map otherwise. A nil, mismatched, or
// non-positive card means unknown cardinalities and yields a plain sparse
// set, so callers can thread "no metadata" straight through.
func NewFreqSetWithCard(cols []int, card []int) *FreqSet {
	f := &FreqSet{Cols: append([]int(nil), cols...)}
	cells, valid := cardCells(len(cols), card)
	if valid {
		f.card = make([]int32, len(card))
		for i, c := range card {
			f.card[i] = int32(c)
		}
		if cells <= DenseMaxCells {
			f.stride = make([]int64, len(card))
			s := int64(1)
			for i := len(card) - 1; i >= 0; i-- {
				f.stride[i] = s
				s *= int64(card[i])
			}
			f.dense = make([]int64, cells)
			return f
		}
	}
	f.groups = make(map[string]*int64)
	return f
}

// newFreqSetSized is NewFreqSetWithCard for a set about to be filled from
// `workload` input units (table rows for a scan, source groups for a
// rollup): the dense representation is used only when DenseEligible says it
// pays off at that input size; otherwise the set is sparse but keeps the
// cardinality metadata so later, smaller rollups can still go dense. The
// choice depends only on the layout and the input size — never on the data
// — so it is deterministic, and either outcome behaves identically.
func newFreqSetSized(cols []int, card []int, workload int) *FreqSet {
	if len(card) == len(cols) && DenseEligible(card, workload) && !faultinject.FailAlloc("relation.dense_alloc") {
		return NewFreqSetWithCard(cols, card)
	}
	f := &FreqSet{Cols: append([]int(nil), cols...), groups: make(map[string]*int64)}
	if _, valid := cardCells(len(cols), card); valid {
		f.card = make([]int32, len(card))
		for i, c := range card {
			f.card[i] = int32(c)
		}
	}
	return f
}

// Dense reports whether the set currently uses the dense mixed-radix
// representation (it converts to sparse if fed out-of-range codes).
func (f *FreqSet) Dense() bool { return f.dense != nil }

// Card returns a copy of the per-column cardinality bounds, or nil when
// they are unknown.
func (f *FreqSet) Card() []int {
	if f.card == nil {
		return nil
	}
	out := make([]int, len(f.card))
	for i, c := range f.card {
		out[i] = int(c)
	}
	return out
}

// packKey encodes a code vector into a map key held in buf, which must have
// room for 4 bytes per code.
func packKey(buf []byte, codes []int32) []byte {
	for i, c := range codes {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(c))
	}
	return buf[:4*len(codes)]
}

// unpackKey decodes a map key back into codes. It indexes the string
// directly instead of converting sub-slices to []byte, so it never
// allocates.
func unpackKey(key string, codes []int32) {
	for i := range codes {
		j := 4 * i
		codes[i] = int32(uint32(key[j]) | uint32(key[j+1])<<8 | uint32(key[j+2])<<16 | uint32(key[j+3])<<24)
	}
}

// keyCode decodes the i-th code of a packed key.
func keyCode(key string, i int) int32 {
	j := 4 * i
	return int32(uint32(key[j]) | uint32(key[j+1])<<8 | uint32(key[j+2])<<16 | uint32(key[j+3])<<24)
}

// lessKey orders packed keys by their decoded code vectors — lexicographic
// over signed int32 codes, the same order the dense layout stores cells in.
// (Sorting the packed strings directly would order by the little-endian
// byte representation, which diverges once any code exceeds 255.)
func lessKey(a, b string) bool {
	n := len(a) / 4
	for i := 0; i < n; i++ {
		x, y := keyCode(a, i), keyCode(b, i)
		if x != y {
			return x < y
		}
	}
	return false
}

// bump adds n to the sparse group keyed by key. The map read converts key
// without allocating; only the first sighting of a group copies the key
// into the map. Groups never rest at count zero: a zero add of an absent
// group is a no-op and a group decremented back to zero is removed, so both
// representations agree on which groups exist.
func (f *FreqSet) bump(key []byte, n int64) {
	if p, ok := f.groups[string(key)]; ok {
		*p += n
		if *p == 0 {
			delete(f.groups, string(key))
		}
		return
	}
	if n == 0 {
		return
	}
	c := n
	f.groups[string(key)] = &c
}

// denseIndex computes the mixed-radix composite code of a code vector, or
// ok=false if any code falls outside the declared cardinalities.
func (f *FreqSet) denseIndex(codes []int32) (int64, bool) {
	var idx int64
	for i, c := range codes {
		if c < 0 || c >= f.card[i] {
			return 0, false
		}
		idx += int64(c) * f.stride[i]
	}
	return idx, true
}

// bumpDense adds n to the dense cell at idx, maintaining the non-zero
// group count.
func (f *FreqSet) bumpDense(idx, n int64) {
	c := f.dense[idx]
	nc := c + n
	if c == 0 {
		if nc != 0 {
			f.nonzero++
		}
	} else if nc == 0 {
		f.nonzero--
	}
	f.dense[idx] = nc
}

// spill converts a dense set to the sparse representation in place, keeping
// the cardinality metadata. Called when a dense set must absorb codes
// outside its declared cardinalities.
func (f *FreqSet) spill() {
	groups := make(map[string]*int64, f.nonzero)
	buf := make([]byte, 4*len(f.Cols))
	f.Each(func(codes []int32, count int64) {
		c := count
		groups[string(packKey(buf, codes))] = &c
	})
	f.groups = groups
	f.dense, f.stride, f.nonzero = nil, nil, 0
}

// Add increments the count of the group with the given codes by n.
func (f *FreqSet) Add(codes []int32, n int64) {
	if f.dense != nil {
		if idx, ok := f.denseIndex(codes); ok {
			f.bumpDense(idx, n)
			return
		}
		f.spill()
	}
	var scratch [4 * maxStackKeyCols]byte
	buf := scratch[:]
	if 4*len(codes) > len(buf) {
		buf = make([]byte, 4*len(codes))
	}
	f.bump(packKey(buf, codes), n)
}

// Count returns the count of the group with the given codes (0 if absent).
func (f *FreqSet) Count(codes []int32) int64 {
	if f.dense != nil {
		if idx, ok := f.denseIndex(codes); ok {
			return f.dense[idx]
		}
		return 0
	}
	var scratch [4 * maxStackKeyCols]byte
	buf := scratch[:]
	if 4*len(codes) > len(buf) {
		buf = make([]byte, 4*len(codes))
	}
	if p, ok := f.groups[string(packKey(buf, codes))]; ok {
		return *p
	}
	return 0
}

// Len returns the number of distinct value groups.
func (f *FreqSet) Len() int {
	if f.dense != nil {
		return f.nonzero
	}
	return len(f.groups)
}

// Total returns the sum of all counts, i.e. the number of tuples in the
// underlying (projected) relation.
func (f *FreqSet) Total() int64 {
	var t int64
	if f.dense != nil {
		for _, c := range f.dense {
			t += c
		}
		return t
	}
	for _, c := range f.groups {
		t += *c
	}
	return t
}

// MinCount returns the smallest group count, or 0 for an empty set.
func (f *FreqSet) MinCount() int64 {
	var min int64
	first := true
	if f.dense != nil {
		for _, c := range f.dense {
			if c != 0 && (first || c < min) {
				min, first = c, false
			}
		}
		return min
	}
	for _, c := range f.groups {
		if first || *c < min {
			min, first = *c, false
		}
	}
	return min
}

// TuplesBelow returns the total number of tuples that belong to groups with
// count < k. These are exactly the tuples that would need to be suppressed
// for the relation to become k-anonymous (§2.1's suppression threshold).
func (f *FreqSet) TuplesBelow(k int64) int64 {
	var s int64
	if f.dense != nil {
		for _, c := range f.dense {
			if c != 0 && c < k {
				s += c
			}
		}
		return s
	}
	for _, c := range f.groups {
		if *c < k {
			s += *c
		}
	}
	return s
}

// SuppressionExceeds reports whether the tuples in groups with count < k
// outnumber budget, returning as soon as the running sum crosses it. This
// is the early-exit form of TuplesBelow used on the hot k-anonymity check
// path: a clearly non-anonymous frequency set is rejected without summing
// the whole set.
func (f *FreqSet) SuppressionExceeds(k, budget int64) bool {
	var s int64
	if f.dense != nil {
		for _, c := range f.dense {
			if c != 0 && c < k {
				s += c
				if s > budget {
					return true
				}
			}
		}
		return false
	}
	for _, c := range f.groups {
		if *c < k {
			s += *c
			if s > budget {
				return true
			}
		}
	}
	return false
}

// IsKAnonymous reports whether every group count is ≥ k, allowing up to
// maxSuppress tuples in undersized groups to be suppressed. With
// maxSuppress == 0 this is the plain k-anonymity property of §1.1. It
// stops scanning as soon as the threshold is provably exceeded.
func (f *FreqSet) IsKAnonymous(k int64, maxSuppress int64) bool {
	return !f.SuppressionExceeds(k, maxSuppress)
}

// Each calls fn for every group in unspecified order. The codes slice is
// reused across calls; fn must not retain or modify it.
func (f *FreqSet) Each(fn func(codes []int32, count int64)) {
	codes := make([]int32, len(f.Cols))
	if f.dense != nil {
		n := len(codes)
		for _, count := range f.dense {
			if count != 0 {
				fn(codes, count)
			}
			for i := n - 1; i >= 0; i-- {
				codes[i]++
				if codes[i] < f.card[i] {
					break
				}
				codes[i] = 0
			}
		}
		return
	}
	for key, count := range f.groups {
		unpackKey(key, codes)
		fn(codes, *count)
	}
}

// EachSorted calls fn for every group in lexicographic code order, for
// deterministic output. Both representations yield the same order: the
// dense array is stored in it, and the sparse path sorts by decoded codes.
func (f *FreqSet) EachSorted(fn func(codes []int32, count int64)) {
	if f.dense != nil {
		f.Each(fn) // the mixed-radix layout is already in code order
		return
	}
	keys := make([]string, 0, len(f.groups))
	for key := range f.groups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	codes := make([]int32, len(f.Cols))
	for _, key := range keys {
		unpackKey(key, codes)
		fn(codes, *f.groups[key])
	}
}

// AddFrom adds every group count of other into f — the merge step of a
// sharded scan. Both sets must range over the same columns. Two dense sets
// with the same layout merge by a single vector add; every other
// combination falls back to re-adding groups (converting transparently).
func (f *FreqSet) AddFrom(other *FreqSet) {
	if len(f.Cols) != len(other.Cols) {
		panic(fmt.Sprintf("relation: AddFrom over mismatched columns %v and %v", f.Cols, other.Cols))
	}
	for i, c := range f.Cols {
		if other.Cols[i] != c {
			panic(fmt.Sprintf("relation: AddFrom over mismatched columns %v and %v", f.Cols, other.Cols))
		}
	}
	if f.dense != nil && other.dense != nil && sameCard(f.card, other.card) {
		for i, c := range other.dense {
			if c != 0 {
				f.bumpDense(int64(i), c)
			}
		}
		return
	}
	if f.groups != nil && other.groups != nil {
		for key, c := range other.groups {
			if p, ok := f.groups[key]; ok {
				*p += *c
				if *p == 0 {
					delete(f.groups, key)
				}
			} else if *c != 0 {
				n := *c
				f.groups[key] = &n
			}
		}
		return
	}
	other.Each(func(codes []int32, count int64) { f.Add(codes, count) })
}

func sameCard(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// InferCard derives the per-column cardinality bounds of a GroupCount over
// t: a recoded column is bounded by its recode table's largest target code,
// an identity column by its dictionary size. For the dimension tables
// internal/hierarchy materializes, this equals the hierarchy's LevelSize at
// the scanned level, so inferred and threaded metadata agree.
func InferCard(t *Table, cols []int, recode [][]int32) []int {
	card := make([]int, len(cols))
	for i, c := range cols {
		if recode != nil && recode[i] != nil {
			max := int32(-1)
			for _, g := range recode[i] {
				if g > max {
					max = g
				}
			}
			card[i] = int(max) + 1
		} else {
			card[i] = t.Dict(c).Len()
		}
	}
	return card
}

// GroupCount computes the frequency set of t with respect to cols after
// recoding each column's codes through the corresponding lookup table
// (recode[i][baseCode] = generalized code; a nil entry means identity, i.e.
// the column is grouped at its base domain). This is the paper's
// "SELECT COUNT(*) ... GROUP BY ..." over the star schema: the recode arrays
// are the materialized dimension tables. The representation is chosen
// adaptively from the inferred cardinalities and the table's row count
// (see DenseEligible).
func GroupCount(t *Table, cols []int, recode [][]int32) *FreqSet {
	return GroupCountWithCard(t, cols, recode, InferCard(t, cols, recode))
}

// GroupCountWithCard is GroupCount with explicit per-column cardinality
// bounds (nil card forces the sparse representation), for callers — like
// core.Input — that already know the generalized domain sizes from the
// hierarchies.
func GroupCountWithCard(t *Table, cols []int, recode [][]int32, card []int) *FreqSet {
	return GroupCountRange(t, cols, recode, card, 0, t.NumRows())
}

// GroupCountRange is GroupCountWithCard restricted to the row range
// [lo, hi), the body of every sequential scan. On the dense path the
// recode lookup and the mixed-radix multiply fuse into one per-column
// table, so counting a tuple is len(cols) array reads, one add each, and a
// single increment — no hashing, no key packing.
func GroupCountRange(t *Table, cols []int, recode [][]int32, card []int, lo, hi int) *FreqSet {
	// The representation choice uses the whole table's row count, not the
	// shard's, so every shard of a parallel scan picks the same layout and
	// the merge stays a vector add.
	f := newFreqSetSized(cols, card, t.NumRows())
	var lk *scanTables
	if f.dense != nil {
		lk = singletons(t, cols).lookups(cols, recode, card)
	}
	f.countRange(t, cols, recode, lk, lo, hi)
	return f
}

// countRange folds the rows [lo, hi) of t into f — the body of every
// scan, split out so a scan worker can accumulate several chunks into one
// worker-local set without a merge per chunk. lk is the scan's lookups
// (Packing.lookups over f's layout), built once per scan and only read
// here; a dense f handed nil lookups spills and counts sparsely.
func (f *FreqSet) countRange(t *Table, cols []int, recode [][]int32, lk *scanTables, lo, hi int) {
	if f.dense != nil {
		if lk != nil {
			faultinject.Point("relation.dense_scan")
			f.countDense(lk.codes, lk.tables, lo, hi)
			return
		}
		f.spill()
	}
	columns := make([][]int32, len(cols))
	for i, c := range cols {
		columns[i] = t.Codes(c)
	}
	codes := make([]int32, len(cols))
	buf := make([]byte, 4*len(cols))
	for r := lo; r < hi; r++ {
		for i := range cols {
			c := columns[i][r]
			if recode != nil && recode[i] != nil {
				c = recode[i][c]
			}
			codes[i] = c
		}
		f.bump(packKey(buf, codes), 1)
	}
}

// scanBlock is the number of rows the dense scan loop takes at a time. The
// block's composite codes live in a 4 KiB stack array that stays in L1
// cache while every group pass streams over it.
const scanBlock = 1024

// countDense is the dense scan loop over the rows [lo, hi): codes[g] is
// group g's code vector and tables[g] its fused table (Packing.lookups),
// so a row's composite code is the sum of one lookup per group. It works a
// block of rows at a time: one pass per pair of groups adds both groups'
// lookups into the block's composite codes (a lone first pass when the
// group count is odd), then one pass bumps the cells. Each pass keeps its
// two tables and two code slices in registers, where a loop over rows
// would reload every group's slice headers, with their bounds checks, for
// every row. When the layout has no more cells than the range has rows,
// the bump pass drops its per-row zero test and nonzero is recounted once
// at the end, for no more than the rows cost.
func (f *FreqSet) countDense(codes, tables [][]int32, lo, hi int) {
	var block [scanBlock]int32
	dense, nonzero := f.dense, f.nonzero
	recount := len(dense) <= hi-lo
	for b := lo; b < hi; b += scanBlock {
		e := b + scanBlock
		if e > hi {
			e = hi
		}
		idx := block[:e-b]
		i := len(codes) % 2
		if i == 1 {
			la, ca := tables[0], codes[0][b:e]
			for r, c := range ca {
				idx[r] = la[c]
			}
		} else {
			la, ca := tables[0], codes[0][b:e]
			lb, cb := tables[1], codes[1][b:e]
			cb = cb[:len(ca)]
			for r, c := range ca {
				idx[r] = la[c] + lb[cb[r]]
			}
			i = 2
		}
		for ; i < len(codes); i += 2 {
			la, ca := tables[i], codes[i][b:e]
			lb, cb := tables[i+1], codes[i+1][b:e]
			cb = cb[:len(ca)]
			for r, c := range ca {
				idx[r] += la[c] + lb[cb[r]]
			}
		}
		if recount {
			for _, x := range idx {
				dense[x]++
			}
			continue
		}
		for _, x := range idx {
			if dense[x] == 0 {
				nonzero++
			}
			dense[x]++
		}
	}
	if recount {
		nonzero = 0
		for _, c := range dense {
			if c != 0 {
				nonzero++
			}
		}
	}
	f.nonzero = nonzero
}

// minShardRows is the smallest row range worth handing to a scan worker;
// below it, goroutine and merge overhead dominates the counting itself.
const minShardRows = 2048

// scanChunksPerWorker oversubscribes the chunked scan: cutting the table
// into a few times more chunks than workers lets the work-stealing
// scheduler rebalance when chunks cost unevenly (cache effects, a dense
// fallback to sparse mid-scan) or when a worker is preempted, without
// multiplying the number of partial sets — partials are per-worker, not
// per-chunk.
const scanChunksPerWorker = 4

// GroupCountParallelSched is the scheduled form of the parallel scan: row
// chunks (at least minShardRows each, a few per worker) become tasks of
// the work-stealing scheduler, each worker accumulates the chunks it
// executes — its own or stolen — into one worker-local FreqSet, and the
// partials are merged in worker-index order. Counts are additive and
// every chunk's layout decision uses the whole table's row count, so the
// result is bit-identical to the sequential scan at every worker count
// and every steal schedule. m may be nil (unmetered). p is the run's
// column packing (NewPacking); nil, or a packing that does not cover
// cols, scans through singleton groups.
func GroupCountParallelSched(t *Table, cols []int, recode [][]int32, card []int, workers int, m *sched.Metrics, p *Packing) *FreqSet {
	n := t.NumRows()
	if max := n / minShardRows; workers > max {
		workers = max
	}
	// Every dense partial has the scan's one layout, so its lookups are
	// built once, here, and every chunk only reads them. A refused layout
	// leaves lk nil and every dense partial spills.
	var lk *scanTables
	if len(card) == len(cols) && DenseEligible(card, n) {
		p = p.forScan(t, cols)
		lk = p.lookups(cols, recode, card)
		defer p.release(lk)
	}
	if workers <= 1 {
		f := newFreqSetSized(cols, card, n)
		f.countRange(t, cols, recode, lk, 0, n)
		return f
	}
	chunks := workers * scanChunksPerWorker
	if max := n / minShardRows; chunks > max {
		chunks = max
	}
	parts := make([]*FreqSet, workers)
	// Worker panic isolation: each chunk recovers its own panic into a
	// *resilience.PanicError naming the chunk; the coordinator rethrows the
	// lowest-indexed one after every chunk finished, so the enclosing phase
	// guard converts it to an error, no goroutine leaks, and the partially
	// counted partials are never merged.
	panics := make([]*resilience.PanicError, chunks)
	sched.Run(m, workers, chunks, func(w, c int) {
		defer func() {
			if r := recover(); r != nil {
				panics[c] = resilience.AsPanicError(fmt.Sprintf("scan_shard[%d]", c), r)
			}
		}()
		faultinject.Point("relation.scan_shard")
		lo, hi := c*n/chunks, (c+1)*n/chunks
		if parts[w] == nil {
			// Layout chosen from the whole table's rows, like every chunk:
			// all partials agree, so the final merge is a vector add.
			parts[w] = newFreqSetSized(cols, card, t.NumRows())
		}
		parts[w].countRange(t, cols, recode, lk, lo, hi)
	})
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
	var out *FreqSet
	for _, p := range parts {
		if p == nil {
			continue // that worker never won a task
		}
		if out == nil {
			out = p
			continue
		}
		out.AddFrom(p)
	}
	return out
}

// RecodeWithCard produces a new frequency set by mapping each column
// position i of every group through maps[i] (nil = identity) and summing
// counts — the paper's rollup property: a SUM(count) group-by over the
// dimension join. card bounds the output's codes per column (nil forces a
// sparse result). A dense-to-dense rollup is a single pass over the source
// array driven by per-column index-contribution tables built once from the
// dimension maps — no hashing and no key material at all.
func (f *FreqSet) RecodeWithCard(maps [][]int32, card []int) *FreqSet {
	out := newFreqSetSized(f.Cols, card, f.Len())
	if f.dense != nil && out.dense != nil {
		if contrib, ok := f.recodeContrib(maps, out); ok {
			faultinject.Point("relation.dense_rollup")
			f.denseRemap(out, contrib)
			return out
		}
	}
	scratch := make([]int32, len(f.Cols))
	f.Each(func(codes []int32, count int64) {
		for i, c := range codes {
			if maps[i] != nil {
				c = maps[i][c]
			}
			scratch[i] = c
		}
		out.Add(scratch, count)
	})
	return out
}

// recodeContrib builds the per-column index-contribution tables of a
// dense-to-dense recode: contrib[i][c] is the target composite-code
// contribution of source code c in column i, folding the dimension map and
// the target stride into one lookup. ok=false if a map would send a code
// outside the target layout.
func (f *FreqSet) recodeContrib(maps [][]int32, out *FreqSet) ([][]int64, bool) {
	contrib := make([][]int64, len(f.card))
	for i := range f.card {
		col := make([]int64, f.card[i])
		for c := int32(0); c < f.card[i]; c++ {
			g := c
			if maps[i] != nil {
				if int(c) >= len(maps[i]) {
					return nil, false
				}
				g = maps[i][c]
			}
			if g < 0 || g >= out.card[i] {
				return nil, false
			}
			col[c] = int64(g) * out.stride[i]
		}
		contrib[i] = col
	}
	return contrib, true
}

// denseRemap folds every cell of f's dense array into out: the target cell
// of a source group is Σ contrib[i][codes[i]], maintained incrementally by
// an odometer over the outer columns — the innermost column has stride 1,
// so each outer position covers one contiguous run of the source array and
// the hot loop is a plain slice walk (load, zero test, one add per live
// cell), no divisions anywhere.
func (f *FreqSet) denseRemap(out *FreqSet, contrib [][]int64) {
	last := len(f.card) - 1
	inner := contrib[last]
	run := int(f.card[last])
	codes := make([]int32, last) // outer odometer over columns [0, last)
	var base int64
	for i := 0; i < last; i++ {
		base += contrib[i][0]
	}
	for lo := 0; lo < len(f.dense); lo += run {
		for c, count := range f.dense[lo : lo+run] {
			if count != 0 {
				out.bumpDense(base+inner[c], count)
			}
		}
		for i := last - 1; i >= 0; i-- {
			base -= contrib[i][codes[i]]
			codes[i]++
			if codes[i] < f.card[i] {
				base += contrib[i][codes[i]]
				break
			}
			codes[i] = 0
			base += contrib[i][0]
		}
	}
}

// DropColumn produces the frequency set over the remaining columns by
// summing over column position pos — the data-cube margin used by Cube
// Incognito's bottom-up pre-computation and by subset-property reasoning.
// Dense to dense, it is the same precomputed index-remap pass as
// RecodeWithCard with the dropped column contributing nothing.
func (f *FreqSet) DropColumn(pos int) *FreqSet {
	rest := make([]int, 0, len(f.Cols)-1)
	for i, c := range f.Cols {
		if i != pos {
			rest = append(rest, c)
		}
	}
	var card []int
	if f.card != nil {
		card = make([]int, 0, len(rest))
		for i, c := range f.card {
			if i != pos {
				card = append(card, int(c))
			}
		}
	}
	out := newFreqSetSized(rest, card, f.Len())
	if f.dense != nil && out.dense != nil {
		contrib := make([][]int64, len(f.card))
		k := 0
		for i := range f.card {
			col := make([]int64, f.card[i])
			if i != pos {
				for c := range col {
					col[c] = int64(c) * out.stride[k]
				}
				k++
			}
			contrib[i] = col
		}
		f.denseRemap(out, contrib)
		return out
	}
	kept := make([]int32, len(rest))
	f.Each(func(codes []int32, count int64) {
		j := 0
		for i, c := range codes {
			if i != pos {
				kept[j] = c
				j++
			}
		}
		out.Add(kept, count)
	})
	return out
}

// MemBytes estimates the retained heap size of the set in bytes — the
// figure the resilience memory accountant budgets with. Dense sets are the
// count array; sparse sets charge each group for its key bytes, boxed
// count, and an amortized share of map overhead. An estimate, not an exact
// measurement: the accountant enforces a soft budget.
func (f *FreqSet) MemBytes() int64 {
	// Fixed overhead: struct header, Cols, card, stride backing arrays.
	b := int64(96) + int64(len(f.Cols))*8 + int64(len(f.card))*4 + int64(len(f.stride))*8
	if f.dense != nil {
		return b + int64(len(f.dense))*8
	}
	// Per sparse group: 4 bytes of key per column plus a string header, a
	// boxed int64 count, and roughly 48 bytes of map bucket share.
	const perGroup = 16 + 8 + 48
	return b + int64(len(f.groups))*(int64(len(f.Cols))*4+perGroup)
}

// Clone returns a deep copy of the frequency set, preserving its
// representation.
func (f *FreqSet) Clone() *FreqSet {
	out := &FreqSet{Cols: append([]int(nil), f.Cols...)}
	if f.card != nil {
		out.card = append([]int32(nil), f.card...)
	}
	if f.dense != nil {
		out.stride = append([]int64(nil), f.stride...)
		out.dense = append([]int64(nil), f.dense...)
		out.nonzero = f.nonzero
		return out
	}
	out.groups = make(map[string]*int64, len(f.groups))
	for k, v := range f.groups {
		c := *v
		out.groups[k] = &c
	}
	return out
}
