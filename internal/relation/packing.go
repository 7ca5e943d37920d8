package relation

import (
	"slices"
	"sort"
	"sync"
)

// packCells bounds a group of several columns: the product of its members'
// base dictionary sizes is at most packCells, so the group's per-scan
// table is a 4 KiB int32 table that stays in L1 cache next to the scan's
// block of composite codes. It is the smallest power of two that packs
// Adults QI 8 into three groups; replaying that run's root scans, bounds
// from 256 to 8,192 ran within noise of each other.
const packCells = 1024

// Packing groups a table's quasi-identifier columns for the dense scan
// loop, which then makes one table lookup per group instead of one per
// column. Columns are packed first-fit decreasing by base dictionary size
// into groups whose size product stays within packCells. A group of
// several columns becomes one int32 code vector holding its members' base
// codes in mixed radix; a column too large to share a group is a
// singleton group that aliases the table's own code vector, with no copy.
//
// Each dense scan builds one fused table per group that holds a scanned
// column: the entry of a packed code is the sum, over the group's scanned
// members, of the member's generalized code times its layout stride.
// Members the scan does not cover contribute 0, and groups with no
// scanned member are skipped. A scan without a packing goes through
// singleton groups of its own columns, so one loop serves both.
//
// A search builds one Packing per run and every scan of the run reads it;
// concurrent scans are safe. The table must not change while the packing
// is in use: a scan whose table, row count or dictionary sizes no longer
// match the packing falls back to singleton groups.
type Packing struct {
	t      *Table
	rows   int
	groups []packGroup
	cells  int  // Σ group cells: the length of one scan's table buffer
	single bool // groups are the scan's own columns, one each, in order

	mu   sync.Mutex
	free []*scanTables // buffers of finished scans, reused by later ones
}

// packGroup is one group of a Packing.
type packGroup struct {
	cols  []int   // member table columns, smallest first; the first is the most significant digit
	radix []int32 // members' base dictionary sizes
	cells int     // product of radix: the length of the group's table
	codes []int32 // per row, the members' base codes in mixed radix
}

// scanTables holds one dense scan's lookups: for each group that holds a
// scanned column, the group's code vector and its fused table.
type scanTables struct {
	codes  [][]int32
	tables [][]int32
	flat   []int32 // backing array of tables, one slot per group
	stride []int32 // the layout's mixed-radix strides, per scan column
}

// NewPacking packs the columns cols of t: first-fit decreasing by base
// dictionary size (ties keep the order of cols, a repeated column counts
// once), each group's size product at most packCells, a column larger
// than that alone in its group.
func NewPacking(t *Table, cols []int) *Packing {
	var order []int
	for _, c := range cols {
		if !slices.Contains(order, c) {
			order = append(order, c)
		}
	}
	size := func(c int) int { return t.Dict(c).Len() }
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	var members [][]int
	var prods []int
	for _, c := range order {
		g := len(members)
		if n := size(c); n <= packCells {
			for i, prod := range prods {
				if prod*n <= packCells {
					g = i
					break
				}
			}
		}
		if g == len(members) {
			members = append(members, nil)
			prods = append(prods, 1)
		}
		members[g] = append(members[g], c)
		prods[g] *= size(c)
	}
	p := &Packing{t: t, rows: t.NumRows(), groups: make([]packGroup, len(members))}
	for i, ms := range members {
		// Members joined in decreasing size; the smallest leads, so the
		// table fill, which expands one member at a time in this order,
		// takes the fewest steps.
		slices.Reverse(ms)
		g := packGroup{cols: ms, radix: make([]int32, len(ms)), cells: prods[i]}
		for j, c := range ms {
			g.radix[j] = int32(size(c))
		}
		if len(ms) == 1 {
			g.codes = t.Codes(ms[0])
		} else {
			// Horner's rule over the members, most significant first.
			g.codes = make([]int32, p.rows)
			for j, c := range ms {
				r := g.radix[j]
				for row, b := range t.Codes(c)[:p.rows] {
					g.codes[row] = g.codes[row]*r + b
				}
			}
		}
		p.groups[i] = g
		p.cells += g.cells
	}
	return p
}

// singletons is the packing a scan without one goes through: one group per
// scanned column, in scan order, each aliasing the table's code vector.
func singletons(t *Table, cols []int) *Packing {
	p := &Packing{t: t, rows: t.NumRows(), groups: make([]packGroup, len(cols)), single: true}
	radix := make([]int32, len(cols))
	for i, c := range cols {
		radix[i] = int32(t.Dict(c).Len())
		p.groups[i] = packGroup{cols: cols[i : i+1], radix: radix[i : i+1], cells: int(radix[i]), codes: t.Codes(c)}
		p.cells += p.groups[i].cells
	}
	return p
}

// forScan returns p when it packs every column of cols, once each, over t
// as it stands, and singleton groups of cols otherwise (always for a nil
// p).
func (p *Packing) forScan(t *Table, cols []int) *Packing {
	if p == nil || p.t != t || p.rows != t.NumRows() {
		return singletons(t, cols)
	}
	for _, g := range p.groups {
		for j, c := range g.cols {
			if int(g.radix[j]) != t.Dict(c).Len() {
				return singletons(t, cols)
			}
		}
	}
	for i, c := range cols {
		if slices.Contains(cols[:i], c) || !p.packs(c) {
			return singletons(t, cols)
		}
	}
	return p
}

// packs reports whether table column c belongs to one of p's groups.
func (p *Packing) packs(c int) bool {
	for _, g := range p.groups {
		if slices.Contains(g.cols, c) {
			return true
		}
	}
	return false
}

// lookups builds the dense scan lookups of cols, recoded through recode,
// over the layout card, or returns nil when a reachable code falls outside
// card; the scan then spills to the sparse loop. The tables and the
// composite codes are int32: card is a dense layout, so it has at most
// DenseMaxCells = 2^22 cells, and every stride, every table entry and
// every partial sum of code·stride terms is below 2^22. p must pack cols
// (forScan); hand the result back with release once the scan is done.
func (p *Packing) lookups(cols []int, recode [][]int32, card []int) *scanTables {
	for i, c := range cols {
		for b, n := 0, p.t.Dict(c).Len(); b < n; b++ {
			g := int32(b)
			if recode != nil && recode[i] != nil {
				if b >= len(recode[i]) {
					return nil
				}
				g = recode[i][b]
			}
			if g < 0 || int(g) >= card[i] {
				return nil
			}
		}
	}
	st := p.get()
	st.stride = slices.Grow(st.stride[:0], len(card))[:len(card)]
	s := int32(1)
	for i := len(card) - 1; i >= 0; i-- {
		st.stride[i] = s
		s *= int32(card[i])
	}
	st.codes, st.tables = st.codes[:0], st.tables[:0]
	off := 0
	for gi := range p.groups {
		g := &p.groups[gi]
		tab := st.flat[off : off+g.cells : off+g.cells]
		off += g.cells
		if p.fill(gi, tab, cols, recode, st.stride) {
			st.codes = append(st.codes, g.codes)
			st.tables = append(st.tables, tab)
		}
	}
	return st
}

// fill writes the table of group gi for a scan of cols into tab. The
// entry of a packed code is the sum, over the group's members the scan
// covers, of the member's generalized code at its digit of the packed
// code times its layout stride. It reports false, writing nothing, when
// the group holds no scanned column.
func (p *Packing) fill(gi int, tab []int32, cols []int, recode [][]int32, stride []int32) bool {
	g := &p.groups[gi]
	pos := func(j int) int {
		if p.single {
			return gi
		}
		return slices.Index(cols, g.cols[j])
	}
	touched := false
	for j := range g.cols {
		touched = touched || pos(j) >= 0
	}
	if !touched || len(tab) == 0 {
		return touched
	}
	// Expand one member at a time, from the back so that entry a is read
	// before the member's digits overwrite it: after member j, tab[:n]
	// holds the sums over members 0..j.
	tab[0] = 0
	n := 1
	for j := range g.cols {
		r, i := int(g.radix[j]), pos(j)
		for a := n - 1; a >= 0; a-- {
			base, out := tab[a], tab[a*r:a*r+r]
			switch {
			case i < 0:
				for b := range out {
					out[b] = base
				}
			case recode != nil && recode[i] != nil:
				for b, gen := range recode[i][:r] {
					out[b] = base + gen*stride[i]
				}
			default:
				for b := range out {
					out[b] = base + int32(b)*stride[i]
				}
			}
		}
		n *= r
	}
	return true
}

// get hands out a table buffer: one a finished scan released, or a new one.
func (p *Packing) get() *scanTables {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		st := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return st
	}
	p.mu.Unlock()
	return &scanTables{
		codes:  make([][]int32, 0, len(p.groups)),
		tables: make([][]int32, 0, len(p.groups)),
		flat:   make([]int32, p.cells),
	}
}

// release returns a finished scan's buffer for the next scan to reuse.
func (p *Packing) release(st *scanTables) {
	if st == nil || p.single {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, st)
	p.mu.Unlock()
}
