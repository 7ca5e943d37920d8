package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"incognito/internal/hierarchy"
	"incognito/internal/lattice"
	"incognito/internal/relation"
	"incognito/internal/resilience"
)

// packStrings packs value strings into one length-prefixed key: a 4-byte
// little-endian length, then the bytes, per value. Persisted base groups
// are ordered as these keys compare; the engine reproduces that order with
// cmpPacked without ever building a key.
func packStrings(vals []string) string {
	var b strings.Builder
	var n [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
		b.Write(n[:])
		b.WriteString(v)
	}
	return b.String()
}

// randomValuePool draws values that stress the packed order: the empty
// string, bytes at and above 0x80, and lengths on both sides of 256 and
// 512, where the little-endian length prefix stops ordering like the
// length. A small pool makes equal elements common, so later tuple
// positions get compared too.
func randomValuePool(rng *rand.Rand, n int) []string {
	lengths := []int{0, 1, 1, 2, 3, 255, 256, 257, 511, 512, 513, 767, 768}
	alphabet := []byte{0x00, 'a', 'b', 0x7f, 0x80, 0xc3, 0xff}
	pool := make([]string, n)
	for i := range pool {
		l := lengths[rng.Intn(len(lengths))]
		if rng.Intn(4) == 0 {
			l = rng.Intn(600)
		}
		b := make([]byte, l)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		pool[i] = string(b)
	}
	return pool
}

// cmpPackedVals lifts the engine's cmpPacked to equal-length value tuples,
// element by element, as the capture's rank sort does.
func cmpPackedVals(a, b []string) int {
	for i := range a {
		if c := cmpPacked(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestCmpPackedValsMatchesPackedKeys: the key-free comparator, lifted to
// tuples, orders value tuples exactly as their packed keys compare.
func TestCmpPackedValsMatchesPackedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := randomValuePool(rng, 48)
	tuple := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	for trial := 0; trial < 50000; trial++ {
		n := 1 + rng.Intn(4)
		a, b := tuple(n), tuple(n)
		if rng.Intn(3) == 0 {
			copy(b, a[:rng.Intn(n)]) // share a prefix
		}
		want := strings.Compare(packStrings(a), packStrings(b))
		if got := sign(cmpPackedVals(a, b)); got != want {
			t.Fatalf("cmpPackedVals(%q, %q) = %d, packed keys compare %d", a, b, got, want)
		}
	}
}

// TestCaptureBaseOrderIsPackedKeyOrder: the rank-sorted capture renders
// groups in strictly increasing packed-key order, for values of every
// length class.
func TestCaptureBaseOrderIsPackedKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := randomValuePool(rng, 40)
	tab := relation.MustNewTable("A", "B", "C")
	for r := 0; r < 2000; r++ {
		if err := tab.AppendRow([]string{pool[rng.Intn(12)], pool[rng.Intn(len(pool))], pool[rng.Intn(5)]}); err != nil {
			t.Fatal(err)
		}
	}
	in := NewInput(tab, []int{0, 1, 2}, suppressionHierarchies(t, tab, 3), 2, 0)
	base := CaptureBase(&in)
	var total int64
	for i, g := range base {
		total += g.N
		if i > 0 && packStrings(base[i-1].V) >= packStrings(g.V) {
			t.Fatalf("groups %d and %d out of packed-key order: %q then %q", i-1, i, base[i-1].V, g.V)
		}
	}
	if total != int64(tab.NumRows()) {
		t.Fatalf("captured groups cover %d rows, table has %d", total, tab.NumRows())
	}
}

// suppressionHierarchies binds a height-1 "everything → *" hierarchy to
// each of the table's first n columns.
func suppressionHierarchies(t testing.TB, tab *relation.Table, n int) []*hierarchy.Hierarchy {
	t.Helper()
	hs := make([]*hierarchy.Hierarchy, n)
	for i := range hs {
		h, err := hierarchy.SuppressionSpec(tab.Columns()[i]).Bind(tab.Dict(i))
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	return hs
}

// TestDeltaBaseGroupsMatchCapture: the patched base set a delta run emits
// is, element by element, the base set a capture of the edited table
// renders.
func TestDeltaBaseGroupsMatchCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		fx := newDeltaFixture(rng, 2+rng.Intn(2), 2, 0)
		rows := fx.randomRows(rng, 30+rng.Intn(40))
		coldIn := fx.bind(t, fx.table(t, rows))
		coldIn.Capture = &StateCapture{}
		if _, err := Run(coldIn, Basic); err != nil {
			t.Fatal(err)
		}
		state := runState(&coldIn, coldIn.Capture)
		removeFrac := 0.1
		if trial%3 == 2 {
			removeFrac = 0.6 // empties groups and drops values from the table
		}
		edited, removed, added := fx.splitDelta(rng, rows, removeFrac, rng.Intn(6))
		din := fx.bind(t, fx.table(t, edited))
		din.Delta = &DeltaRun{State: state, Added: fx.deltaRows(t, added), Removed: fx.deltaRows(t, removed)}
		if _, err := Run(din, Basic); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := CaptureBase(&din)
		if got := din.Delta.BaseGroups(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: delta base groups differ from a capture of the edited table\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestDeltaPrepareErrors: a state that cannot describe the edited table
// is refused with a message naming the offending value.
func TestDeltaPrepareErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fx := newDeltaFixture(rng, 2, 2, 0)
	rows := fx.randomRows(rng, 40)
	coldIn := fx.bind(t, fx.table(t, rows))
	coldIn.Capture = &StateCapture{}
	if _, err := Run(coldIn, Basic); err != nil {
		t.Fatal(err)
	}
	state := runState(&coldIn, coldIn.Capture)
	run := func(tableRows [][]int32, st *resilience.RunState, removed [][]int32) error {
		in := fx.bind(t, fx.table(t, tableRows))
		in.Delta = &DeltaRun{State: st, Removed: fx.deltaRows(t, removed)}
		_, err := Run(in, Basic)
		return err
	}
	mustName := func(what string, err error, names ...string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: delta run succeeded", what)
		}
		t.Logf("%s: %v", what, err)
		for _, n := range names {
			if strings.Contains(err.Error(), n) {
				return
			}
		}
		t.Fatalf("%s: error %q names none of %q", what, err, names)
	}

	t.Run("base value absent from edited table", func(t *testing.T) {
		bad := *state
		bad.Base = append([]resilience.BaseGroup(nil), state.Base...)
		bad.Base[0].V = append([]string{"no-such-value"}, state.Base[0].V[1:]...)
		mustName("absent value", run(rows, &bad, nil), strconv.Quote("no-such-value"))
	})

	t.Run("over-deletion", func(t *testing.T) {
		// Delete one more copy of a group than the state holds; the table
		// drops an unrelated row too, so the row counts still reconcile.
		g := rows[0]
		var kept, removed [][]int32
		for _, r := range rows {
			if reflect.DeepEqual(r, g) {
				removed = append(removed, r)
			} else {
				kept = append(kept, r)
			}
		}
		removed = append(removed, g)
		kept = kept[1:]
		vals := make([]string, len(g))
		for i, c := range g {
			vals[i] = value(int(c))
		}
		mustName("over-deletion", run(kept, state, removed), fmt.Sprint(vals))
	})

	t.Run("different table with the same row count", func(t *testing.T) {
		// Move one row of attribute A to another value the table holds:
		// same size, same value set, different counts.
		other := make([][]int32, len(rows))
		for i, r := range rows {
			other[i] = append([]int32(nil), r...)
		}
		from := other[0][0]
		to := from
		for _, r := range rows {
			if r[0] != from {
				to = r[0]
				break
			}
		}
		other[0][0] = to
		mustName("different table", run(other, state, nil),
			strconv.Quote(value(int(from))), strconv.Quote(value(int(to))))
	})
}

// distinctTable builds a two-column table whose rows are every pair of
// `side` values, one row each: side² base groups.
func distinctTable(t testing.TB, side int) *relation.Table {
	tab := relation.MustNewTable("A", "B")
	for a := 0; a < side; a++ {
		for b := 0; b < side; b++ {
			if err := tab.AppendRow([]string{"a" + strconv.Itoa(a), "b" + strconv.Itoa(b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// deltaRowsOf pre-generalizes table rows through bound hierarchies.
func deltaRowsOf(t testing.TB, hs []*hierarchy.Hierarchy, rows [][]string) []DeltaRow {
	out := make([]DeltaRow, len(rows))
	for r, row := range rows {
		out[r].Gen = make([][]string, len(hs))
		for d, h := range hs {
			for l := 0; l <= h.Height(); l++ {
				g, err := h.GeneralizeValue(l, row[d])
				if err != nil {
					t.Fatal(err)
				}
				out[r].Gen[d] = append(out[r].Gen[d], g)
			}
		}
	}
	return out
}

// TestDeltaPrepareAllocsPerBaseGroup guards prepare's cost: translating and
// patching a state costs at most a few allocations per base group, so a
// 100k-group state never turns into millions of small objects.
func TestDeltaPrepareAllocsPerBaseGroup(t *testing.T) {
	const side = 200 // 40,000 base groups
	orig := distinctTable(t, side)
	origIn := NewInput(orig, []int{0, 1}, suppressionHierarchies(t, orig, 2), 1, 0)
	state := &resilience.RunState{Fingerprint: resilience.Fingerprint{Heights: origIn.Heights()}, Cols: []string{"A", "B"}, K: 1, Rows: orig.NumRows(), Base: CaptureBase(&origIn)}

	// The edit: drop the first 10 rows, duplicate 10 others.
	var add, del [][]string
	edited := relation.MustNewTable("A", "B")
	for r := 0; r < orig.NumRows(); r++ {
		if r < 10 {
			del = append(del, orig.Row(r))
			continue
		}
		if err := edited.AppendRow(orig.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 100; r < 110; r++ {
		add = append(add, orig.Row(r))
		if err := edited.AppendRow(orig.Row(r)); err != nil {
			t.Fatal(err)
		}
	}
	hs := suppressionHierarchies(t, edited, 2)
	in := NewInput(edited, []int{0, 1}, hs, 1, 0)
	added, removed := deltaRowsOf(t, hs, add), deltaRowsOf(t, hs, del)
	allocs := testing.AllocsPerRun(2, func() {
		d := &DeltaRun{State: state, Added: added, Removed: removed}
		if err := d.prepare(&in); err != nil {
			t.Fatal(err)
		}
	})
	perGroup := allocs / float64(len(state.Base))
	t.Logf("prepare: %.0f allocations, %.4f per base group", allocs, perGroup)
	if perGroup > 8 {
		t.Fatalf("prepare made %.1f allocations per base group, want at most 8", perGroup)
	}
}

// TestGroupDeltasAllocsConstant guards the per-node grouping, which runs
// at every screened node: delta rows that share one group cost no
// allocations of their own.
func TestGroupDeltasAllocsConstant(t *testing.T) {
	measure := func(copies int) float64 {
		orig := distinctTable(t, 4)
		edited := relation.MustNewTable("A", "B")
		for r := 0; r < orig.NumRows(); r++ {
			if err := edited.AppendRow(orig.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		add := make([][]string, copies)
		for i := range add {
			add[i] = orig.Row(5)
			if err := edited.AppendRow(add[i]); err != nil {
				t.Fatal(err)
			}
		}
		origIn := NewInput(orig, []int{0, 1}, suppressionHierarchies(t, orig, 2), 1, 0)
		state := &resilience.RunState{Fingerprint: resilience.Fingerprint{Heights: origIn.Heights()}, Cols: []string{"A", "B"}, K: 1, Rows: orig.NumRows(), Base: CaptureBase(&origIn)}
		hs := suppressionHierarchies(t, edited, 2)
		in := NewInput(edited, []int{0, 1}, hs, 1, 0)
		d := &DeltaRun{State: state, Added: deltaRowsOf(t, hs, add)}
		if err := d.prepare(&in); err != nil {
			t.Fatal(err)
		}
		node := &lattice.Node{Dims: []int{0, 1}, Levels: []int{0, 0}}
		if got := d.st.groupDeltas(node); len(got) != 1 || got[0].add != int64(copies) || !got[0].pre {
			t.Fatalf("%d copies of one row grouped as %+v", copies, got)
		}
		return testing.AllocsPerRun(20, func() { d.st.groupDeltas(node) })
	}
	few, many := measure(10), measure(1000)
	t.Logf("groupDeltas: %.0f allocations for 10 rows, %.0f for 1000", few, many)
	if many != few || many > 8 {
		t.Fatalf("groupDeltas made %.0f allocations for 1000 rows in one group and %.0f for 10, want the same small constant", many, few)
	}
}
