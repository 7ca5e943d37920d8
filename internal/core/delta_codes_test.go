package core

import (
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

// TestDeltaDigestsMatchCapture: over random tables and random chains of
// edits, the digests a delta run hands its follow-on state equal a cold
// capture's digests of the edited table, whatever order that table holds
// its rows in (and so whatever its dictionary codes).
func TestDeltaDigestsMatchCapture(t *testing.T) {
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
		for hop := 0; hop < 3; hop++ {
			removeFrac := 0.1
			if (trial+hop)%3 == 2 {
				removeFrac = 0.6 // empties groups and drops values from the table
			}
			edited, removed, added := fx.splitDelta(rng, rows, removeFrac, rng.Intn(6))
			din := fx.bind(t, fx.table(t, edited))
			din.Delta = &DeltaRun{State: state, Added: fx.deltaRows(t, added), Removed: fx.deltaRows(t, removed)}
			din.Capture = &StateCapture{}
			if _, err := Run(din, Basic); err != nil {
				t.Fatalf("trial %d hop %d: %v", trial, hop, err)
			}
			shuffled := append([][]int32(nil), edited...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			capIn := fx.bind(t, fx.table(t, shuffled))
			if got, want := din.Delta.Digests(), tableDigests(&capIn); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d hop %d: delta digests differ from a capture of the edited table\ngot  %x\nwant %x", trial, hop, got, want)
			}
			state = &resilience.RunState{
				Fingerprint: state.Fingerprint,
				Cols:        state.Cols,
				K:           state.K,
				MaxSuppress: state.MaxSuppress,
				Rows:        len(edited),
				Digests:     din.Delta.Digests(),
				Records:     append(din.Capture.Records(), din.Delta.UntouchedRecords(&din)...),
			}
			rows = edited
		}
	}
}

// TestDeltaPrepareErrors: a state that cannot describe the edited table
// is refused with a message naming an attribute whose digest differs.
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
		// Every row holding one value of attribute B takes another value
		// instead, so the value the state counted is gone from the table.
		gone, other := rows[0][1], rows[0][1]
		for _, r := range rows {
			if r[1] != gone {
				other = r[1]
				break
			}
		}
		moved := make([][]int32, len(rows))
		for i, r := range rows {
			moved[i] = append([]int32(nil), r...)
			if r[1] == gone {
				moved[i][1] = other
			}
		}
		mustName("absent value", run(moved, state, nil), strconv.Quote("B"))
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
		mustName("over-deletion", run(kept, state, removed), strconv.Quote("A"), strconv.Quote("B"))
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
		mustName("different table", run(other, state, nil), strconv.Quote("A"))
	})

	t.Run("same marginals, different joint distribution", func(t *testing.T) {
		// Swap attribute B between two rows that differ in both
		// attributes: every column holds the same values as often as
		// before, but they occur together differently.
		other := make([][]int32, len(rows))
		for i, r := range rows {
			other[i] = append([]int32(nil), r...)
		}
		for i := 1; i < len(other); i++ {
			if other[i][0] != other[0][0] && other[i][1] != other[0][1] {
				other[0][1], other[i][1] = other[i][1], other[0][1]
				break
			}
		}
		err := run(other, state, nil)
		if err == nil || !strings.Contains(err.Error(), "joint distribution") {
			t.Fatalf("swapped values: got %v, want a refusal naming the joint distribution", err)
		}
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

// TestDeltaPrepareAllocsPerRow guards prepare's cost: checking a state
// against its table hashes each dictionary value once and allocates
// nothing per row, so sixteen times the rows cost no more allocations.
func TestDeltaPrepareAllocsPerRow(t *testing.T) {
	measure := func(side int) float64 {
		orig := distinctTable(t, side)
		origIn := NewInput(orig, []int{0, 1}, suppressionHierarchies(t, orig, 2), 1, 0)
		state := &resilience.RunState{Fingerprint: resilience.Fingerprint{Heights: origIn.Heights()}, Cols: []string{"A", "B"}, K: 1, Rows: orig.NumRows(), Digests: tableDigests(&origIn)}

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
		for r := 20; r < 30; r++ {
			add = append(add, orig.Row(r))
			if err := edited.AppendRow(orig.Row(r)); err != nil {
				t.Fatal(err)
			}
		}
		hs := suppressionHierarchies(t, edited, 2)
		in := NewInput(edited, []int{0, 1}, hs, 1, 0)
		added, removed := deltaRowsOf(t, hs, add), deltaRowsOf(t, hs, del)
		return testing.AllocsPerRun(2, func() {
			d := &DeltaRun{State: state, Added: added, Removed: removed}
			if err := d.prepare(&in); err != nil {
				t.Fatal(err)
			}
			for r, old := range d.st.addedOld {
				if !old {
					t.Fatalf("added row %d duplicates a row of the prior table, but prepare found no prior copy", r)
				}
			}
		})
	}
	few, many := measure(50), measure(200) // 2,500 and 40,000 rows
	t.Logf("prepare: %.0f allocations at 2,500 rows, %.0f at 40,000", few, many)
	if many > few+4 {
		t.Fatalf("prepare made %.0f allocations at 40,000 rows and %.0f at 2,500, want no more per row", many, few)
	}
}

// TestDeltaPrepareFindsPriorTuples: prepare reads off the edited table
// whether each added row's full-QI tuple existed in the prior table: the
// edited table's count less the delta's net change is positive.
func TestDeltaPrepareFindsPriorTuples(t *testing.T) {
	rows := func(pairs ...string) [][]string {
		out := make([][]string, len(pairs))
		for i, p := range pairs {
			out[i] = []string{p[:2], p[2:]}
		}
		return out
	}
	table := func(rs [][]string) *relation.Table {
		tab := relation.MustNewTable("A", "B")
		for _, r := range rs {
			if err := tab.AppendRow(r); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	orig := table(rows("a0b0", "a0b1", "a1b0", "a1b0"))
	origIn := NewInput(orig, []int{0, 1}, suppressionHierarchies(t, orig, 2), 1, 0)
	state := &resilience.RunState{Fingerprint: resilience.Fingerprint{Heights: origIn.Heights()}, Cols: []string{"A", "B"}, K: 1, Rows: orig.NumRows(), Digests: tableDigests(&origIn)}

	// Added: a tuple the table held, a new combination of held values, a
	// tuple whose only row is deleted and added back, and a new value twice.
	add := rows("a0b0", "a1b1", "a0b1", "a2b2", "a2b2")
	del := rows("a0b1")
	edited := table(append(rows("a0b0", "a1b0", "a1b0"), add...))
	hs := suppressionHierarchies(t, edited, 2)
	in := NewInput(edited, []int{0, 1}, hs, 1, 0)
	d := &DeltaRun{State: state, Added: deltaRowsOf(t, hs, add), Removed: deltaRowsOf(t, hs, del)}
	if err := d.prepare(&in); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, false, false}; !reflect.DeepEqual(d.st.addedOld, want) {
		t.Fatalf("prior tuples of the added rows %v: got %v, want %v", add, d.st.addedOld, want)
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
		state := &resilience.RunState{Fingerprint: resilience.Fingerprint{Heights: origIn.Heights()}, Cols: []string{"A", "B"}, K: 1, Rows: orig.NumRows(), Digests: tableDigests(&origIn)}
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
