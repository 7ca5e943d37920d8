package incognito

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"incognito/internal/dataset"
	"incognito/internal/relation"
)

// applyRowDeltaStrings is the string edit ApplyRowDelta replaced, kept as
// its oracle: every row is materialized and matched by a packed string
// key, and the edited table is rebuilt row by row with AppendRow.
func applyRowDeltaStrings(t *Table, add, del [][]string) (*Table, error) {
	cols := t.rel.Columns()
	for _, r := range append(append([][]string{}, add...), del...) {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("incognito: delta row has %d values, table has %d columns", len(r), len(cols))
		}
	}
	pending := make(map[string]int, len(del))
	for _, r := range del {
		pending[packStrings(r)]++
	}
	out := relation.MustNewTable(cols...)
	for i := 0; i < t.rel.NumRows(); i++ {
		row := t.rel.Row(i)
		if key := packStrings(row); pending[key] > 0 {
			pending[key]--
			continue
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	for _, r := range del {
		if pending[packStrings(r)] > 0 {
			return nil, fmt.Errorf("incognito: delta deletes row %v more times than the table contains it", r)
		}
	}
	for _, r := range add {
		if err := out.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return &Table{rel: out}, nil
}

// packStrings encodes a row as a collision-free string key
// (length-prefixed values).
func packStrings(vals []string) string {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
		b = append(b, v...)
	}
	return string(b)
}

// sameEdit fails the test unless ApplyRowDelta and the string oracle agree
// on add/del over tab: the same error text, or tables with the same
// dictionaries (values in code order), code vectors and CSV bytes.
func sameEdit(t *testing.T, name string, tab *Table, add, del [][]string) {
	t.Helper()
	got, gotErr := ApplyRowDelta(tab, add, del)
	want, wantErr := applyRowDeltaStrings(tab, add, del)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, string edit %v", name, gotErr, wantErr)
		}
		return
	}
	if got.rel.NumRows() != want.rel.NumRows() {
		t.Fatalf("%s: %d rows, string edit %d", name, got.rel.NumRows(), want.rel.NumRows())
	}
	for c := 0; c < want.rel.NumCols(); c++ {
		if g, w := got.rel.Dict(c).Values(), want.rel.Dict(c).Values(); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: column %d dictionary %q, string edit %q", name, c, g, w)
		}
		if g, w := got.rel.Codes(c), want.rel.Codes(c); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: column %d codes %v, string edit %v", name, c, g, w)
		}
	}
	var g, w bytes.Buffer
	if err := got.WriteCSV(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: CSV bytes differ from the string edit", name)
	}
}

// TestApplyRowDeltaMatchesStringEdit is the differential property test of
// the edit on codes: on random small tables with duplicate rows, deletes
// of rows holding values the table lacks, over-deletion, and added rows
// with new values, it must agree with the string edit in every respect.
func TestApplyRowDeltaMatchesStringEdit(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 2000; trial++ {
		width := 1 + rng.Intn(3)
		domain := 1 + rng.Intn(4) // small domains make duplicate rows common
		row := func(fresh bool) []string {
			r := make([]string, width)
			for c := range r {
				r[c] = fmt.Sprintf("v%d", rng.Intn(domain))
				if fresh && rng.Intn(3) == 0 {
					r[c] = fmt.Sprintf("new%d", rng.Intn(2))
				}
			}
			return r
		}
		cols := make([]string, width)
		for c := range cols {
			cols[c] = fmt.Sprintf("C%d", c)
		}
		rows := make([][]string, 1+rng.Intn(12))
		for i := range rows {
			rows[i] = row(false)
		}
		tab, err := NewTable(cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		var add, del [][]string
		for i := rng.Intn(4); i > 0; i-- {
			add = append(add, row(true))
		}
		for i := rng.Intn(5); i > 0; i-- {
			switch rng.Intn(4) {
			case 0: // a row the table may lack, or hold a value it lacks
				del = append(del, row(true))
			default: // a present row, possibly more often than it occurs
				del = append(del, rows[rng.Intn(len(rows))])
			}
		}
		sameEdit(t, fmt.Sprintf("trial %d", trial), tab, add, del)
	}
}

// landsEndEdit is the 50-add/50-delete edit the perfbench delta workload
// makes at 1%: row 200i duplicated, row 200i+1 deleted.
func landsEndEdit(tab *Table) (add, del [][]string) {
	for i := 0; i < 50; i++ {
		add = append(add, tab.Row(200*i))
		del = append(del, tab.Row(200*i+1))
	}
	return add, del
}

func TestApplyRowDeltaMatchesStringEditLandsEnd(t *testing.T) {
	tab := &Table{rel: dataset.LandsEnd(20000, 3).Table}
	add, del := landsEndEdit(tab)
	sameEdit(t, "Lands End", tab, add, del)
}

// TestApplyRowDeltaAllocsScaleWithEdit guards the point of the edit on
// codes: its allocations grow with the edit and the dictionaries, not one
// object per row. The same edit on ten times the rows must allocate less
// than twice as much.
func TestApplyRowDeltaAllocsScaleWithEdit(t *testing.T) {
	allocs := func(rows int) float64 {
		tab := &Table{rel: dataset.LandsEnd(rows, 3).Table}
		add, del := landsEndEdit(tab)
		return testing.AllocsPerRun(3, func() {
			if _, err := ApplyRowDelta(tab, add, del); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10000), allocs(100000)
	if large >= 2*small {
		t.Fatalf("ApplyRowDelta allocates %.0f objects on 100k rows, %.0f on 10k: want under 2x", large, small)
	}
	t.Logf("allocations: %.0f on 10k rows, %.0f on 100k", small, large)
}

// TestAnonymizeDeltaRefusesOtherHeights: a state's records describe the
// lattice of the hierarchies it was captured under, so a delta run whose
// hierarchies have other heights is refused with both heights named, in
// either direction — not run on records of another lattice.
func TestAnonymizeDeltaRefusesOtherHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := make([][]string, 60)
	for i := range recs {
		recs[i] = []string{fmt.Sprintf("537%02d", rng.Intn(40)), fmt.Sprint(rng.Intn(2))}
	}
	tab, err := NewTable([]string{"Zip", "Sex"}, recs)
	if err != nil {
		t.Fatal(err)
	}
	qi := func(zipHeight int) []QI {
		return []QI{
			{Column: "Zip", Hierarchy: RoundDigits(zipHeight)},
			{Column: "Sex", Hierarchy: Suppression()},
		}
	}
	add := [][]string{tab.Row(3), {"53799", "1"}}
	del := [][]string{tab.Row(10)}
	for _, h := range []struct{ captured, run int }{{3, 1}, {1, 3}} {
		cold, err := Anonymize(tab, qi(h.captured), Config{K: 3, RetainState: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = AnonymizeDelta(context.Background(), tab, qi(h.run), Config{K: 3}, cold.State(), add, del)
		if err == nil {
			t.Fatalf("captured at Zip height %d, the delta run at height %d was accepted", h.captured, h.run)
		}
		for _, want := range []string{`"Zip"`, fmt.Sprintf("height %d", h.captured), fmt.Sprintf("height %d", h.run)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("captured at height %d, run at %d: error %q does not name %s", h.captured, h.run, err, want)
			}
		}
	}
}
