package incognito_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	incognito "incognito"
)

// censusTable builds a deterministic pseudo-random table through the
// public API, large enough that a small delta leaves most lattice nodes
// screenable.
func censusTable(t *testing.T, rows int, seed int64) *incognito.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([][]string, rows)
	for i := range recs {
		recs[i] = censusRow(rng)
	}
	tab, err := incognito.NewTable([]string{"Birthdate", "Sex", "Zipcode", "Disease"}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func censusRow(rng *rand.Rand) []string {
	dates := []string{"1/21/76", "4/13/86", "2/28/76", "7/4/90", "12/1/82"}
	zips := []string{"53715", "53703", "53706", "53702", "53711", "02139"}
	diseases := []string{"Flu", "Cold", "Hepatitis", "Hang Nail"}
	sex := "Male"
	if rng.Intn(2) == 1 {
		sex = "Female"
	}
	return []string{
		dates[rng.Intn(len(dates))], sex,
		zips[rng.Intn(len(zips))], diseases[rng.Intn(len(diseases))],
	}
}

func solutionLevels(res *incognito.Result) [][]int {
	out := make([][]int, 0, res.Len())
	for _, s := range res.Solutions() {
		out = append(out, s.Levels())
	}
	return out
}

// TestAnonymizeDeltaBitIdenticalPublicAPI is the public-surface contract:
// RetainState → edit → AnonymizeDelta matches a cold Anonymize of the
// edited table in Solutions and Stats, across parallelism.
func TestAnonymizeDeltaBitIdenticalPublicAPI(t *testing.T) {
	tab := censusTable(t, 200, 11)
	rng := rand.New(rand.NewSource(12))
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 3, MaxSuppressed: 1, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.State() == nil {
		t.Fatal("RetainState run returned no state")
	}

	var del [][]string
	for i := 0; i < tab.NumRows(); i += 97 {
		del = append(del, tab.Row(i))
	}
	var add [][]string
	for i := 0; i < 3; i++ {
		add = append(add, censusRow(rng))
	}
	edited, err := incognito.ApplyRowDelta(tab, add, del)
	if err != nil {
		t.Fatal(err)
	}
	if edited.NumRows() != tab.NumRows()+len(add)-len(del) {
		t.Fatalf("edited table has %d rows", edited.NumRows())
	}

	for _, p := range []int{1, 2, 0} {
		cfg := incognito.Config{K: 3, MaxSuppressed: 1, Parallelism: p}
		want, err := incognito.Anonymize(edited, patientsQI(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := incognito.AnonymizeDelta(context.Background(), tab, patientsQI(), cfg, cold.State(), add, del)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(solutionLevels(got.Result), solutionLevels(want)) {
			t.Fatalf("p=%d: delta solutions %v, cold %v",
				p, solutionLevels(got.Result), solutionLevels(want))
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("p=%d: delta stats %+v, cold %+v", p, got.Stats(), want.Stats())
		}
		c := got.Counters
		if c.NodesScreened+c.NodesRevalidated != int64(got.Stats().NodesChecked) {
			t.Fatalf("screened %d + revalidated %d != checked %d",
				c.NodesScreened, c.NodesRevalidated, got.Stats().NodesChecked)
		}
		if c.RowsRescanned < int64(len(add)+len(del)) {
			t.Fatalf("RowsRescanned %d below the delta size %d", c.RowsRescanned, len(add)+len(del))
		}
		if got.Table.NumRows() != edited.NumRows() {
			t.Fatalf("delta result table has %d rows, want %d", got.Table.NumRows(), edited.NumRows())
		}
		if got.State() == nil {
			t.Fatal("delta result carries no follow-on state")
		}
	}
}

// TestAnonymizeDeltaSavesWork pins the perf claim at public-API scale: a
// ~1.5% edit screens the overwhelming majority of nodes and re-scans far
// fewer rows than a cold run.
func TestAnonymizeDeltaSavesWork(t *testing.T) {
	tab := censusTable(t, 400, 21)
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 4, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	var del [][]string
	for i := 0; i < tab.NumRows(); i += 150 {
		del = append(del, tab.Row(i))
	}
	add := [][]string{{"7/4/90", "Male", "53711", "Flu"}}
	got, err := incognito.AnonymizeDelta(context.Background(), tab, patientsQI(),
		incognito.Config{K: 4}, cold.State(), add, del)
	if err != nil {
		t.Fatal(err)
	}
	coldRows := int64(tab.NumRows()) * int64(cold.Stats().TableScans)
	if got.Counters.RowsRescanned*10 > coldRows {
		t.Fatalf("delta re-scanned %d row-equivalents, more than 10%% of the cold run's %d",
			got.Counters.RowsRescanned, coldRows)
	}
	if got.Counters.NodesRevalidated*10 > int64(cold.Stats().NodesChecked) {
		t.Fatalf("delta revalidated %d nodes, more than 10%% of the cold run's %d",
			got.Counters.NodesRevalidated, cold.Stats().NodesChecked)
	}
}

// TestRunStatePersistsAcrossProcessBoundary round-trips the state through
// SaveRunState/LoadRunState and chains a second delta from the first
// delta's follow-on state.
func TestRunStatePersistsAcrossProcessBoundary(t *testing.T) {
	tab := censusTable(t, 150, 31)
	rng := rand.New(rand.NewSource(32))
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.state")
	if err := incognito.SaveRunState(path, cold.State()); err != nil {
		t.Fatal(err)
	}
	state, err := incognito.LoadRunState(path)
	if err != nil {
		t.Fatal(err)
	}

	cur := tab
	for hop := 0; hop < 2; hop++ {
		del := [][]string{cur.Row(hop * 7), cur.Row(hop*7 + 1)}
		add := [][]string{censusRow(rng)}
		got, err := incognito.AnonymizeDelta(context.Background(), cur, patientsQI(),
			incognito.Config{K: 2}, state, add, del)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		edited, err := incognito.ApplyRowDelta(cur, add, del)
		if err != nil {
			t.Fatal(err)
		}
		want, err := incognito.Anonymize(edited, patientsQI(), incognito.Config{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solutionLevels(got.Result), solutionLevels(want)) || got.Stats() != want.Stats() {
			t.Fatalf("hop %d: chained delta diverged from cold run", hop)
		}
		cur, state = got.Table, got.State()
	}
}

func TestApplyRowDeltaValidation(t *testing.T) {
	tab := patientsTable(t)
	if _, err := incognito.ApplyRowDelta(tab, [][]string{{"too", "short"}}, nil); err == nil {
		t.Fatal("short add row accepted")
	}
	missing := []string{"1/1/11", "Male", "99999", "None"}
	if _, err := incognito.ApplyRowDelta(tab, nil, [][]string{missing}); err == nil ||
		!strings.Contains(err.Error(), "delete") {
		t.Fatalf("deleting an absent row gave %v", err)
	}
	// Deleting a duplicated row twice works; three times does not.
	dup := tab.Row(0)
	twice, err := incognito.ApplyRowDelta(tab, [][]string{dup, dup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := incognito.ApplyRowDelta(twice, nil, [][]string{dup, dup, dup}); err != nil {
		t.Fatalf("deleting a thrice-present row three times: %v", err)
	}
	if _, err := incognito.ApplyRowDelta(tab, nil, [][]string{dup, dup}); err == nil {
		t.Fatal("over-deleting a once-present row accepted")
	}
}

func TestAnonymizeDeltaValidation(t *testing.T) {
	tab := patientsTable(t)
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	state := cold.State()
	ctx := context.Background()
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil state", func() error {
			_, err := incognito.AnonymizeDelta(ctx, tab, patientsQI(), incognito.Config{K: 2}, nil, nil, nil)
			return err
		}},
		{"non-basic algorithm", func() error {
			_, err := incognito.AnonymizeDelta(ctx, tab, patientsQI(),
				incognito.Config{K: 2, Algorithm: incognito.CubeIncognito}, state, nil, nil)
			return err
		}},
		{"memory budget", func() error {
			_, err := incognito.AnonymizeDelta(ctx, tab, patientsQI(),
				incognito.Config{K: 2, Budget: incognito.NewMemoryBudget(1 << 20)}, state, nil, nil)
			return err
		}},
		{"mismatched k", func() error {
			_, err := incognito.AnonymizeDelta(ctx, tab, patientsQI(), incognito.Config{K: 3}, state, nil, nil)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Fatalf("%s: delta run succeeded", tc.name)
		}
	}
	if _, err := incognito.Anonymize(tab, patientsQI(),
		incognito.Config{K: 2, RetainState: true, Algorithm: incognito.SuperRootsIncognito}); err == nil {
		t.Fatal("RetainState accepted for a non-basic algorithm")
	}
}

// TestAnonymizeDeltaWithCheckpoint exercises the checkpoint path of a
// delta run end to end (save at every boundary, no kill) and pins that
// the checkpointed run still matches the cold run.
func TestAnonymizeDeltaWithCheckpoint(t *testing.T) {
	tab := censusTable(t, 120, 51)
	cold, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, RetainState: true})
	if err != nil {
		t.Fatal(err)
	}
	del := [][]string{tab.Row(3)}
	add := [][]string{{"12/1/82", "Female", "53702", "Cold"}}
	edited, err := incognito.ApplyRowDelta(tab, add, del)
	if err != nil {
		t.Fatal(err)
	}
	want, err := incognito.Anonymize(edited, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), fmt.Sprintf("delta-%d.ckpt", 1))
	got, err := incognito.AnonymizeDelta(context.Background(), tab, patientsQI(),
		incognito.Config{K: 2, Checkpoint: incognito.NewCheckpointer(path)}, cold.State(), add, del)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solutionLevels(got.Result), solutionLevels(want)) || got.Stats() != want.Stats() {
		t.Fatal("checkpointed delta run diverged from cold run")
	}
}

// goldenNotes are free-text values chosen to stress the persisted band
// order and the string codec: the empty string, bytes ≥ 0x80, and lengths
// on both sides of 256.
var goldenNotes = []string{
	"", "a", "b", "\x80", "é", "\xff\xfe",
	strings.Repeat("x", 255), strings.Repeat("x", 256), strings.Repeat("a", 257),
	strings.Repeat("z", 511), strings.Repeat("m", 512),
}

// TestRunStateBytesGolden pins the exact bytes SaveRunState writes for a
// seeded capture and for the state one delta run chains from it, so any
// change to the stored record or band order, to the chain digests, or to
// what the delta run re-captures shows up here. The hashes were recorded
// at format version 2; each file equals the version-1 file the same test
// wrote, with the base-level set removed, the version changed and the
// digests added.
func TestRunStateBytesGolden(t *testing.T) {
	const (
		wantCapture = "90f7074cd5fa8983b5cde924149934ebdd5a46a2037d901dfce8ad5b20da9c10"
		wantDelta   = "157c27241d4c96bf3335ce3842995aa566b6f8bb7cc0bd435f551f7a5d171027"
	)
	rng := rand.New(rand.NewSource(61))
	row := func() []string {
		return append(censusRow(rng)[:3], goldenNotes[rng.Intn(len(goldenNotes))])
	}
	recs := make([][]string, 300)
	for i := range recs {
		recs[i] = row()
	}
	tab, err := incognito.NewTable([]string{"Birthdate", "Sex", "Zipcode", "Note"}, recs)
	if err != nil {
		t.Fatal(err)
	}
	qi := append(patientsQI(), incognito.QI{Column: "Note", Hierarchy: incognito.Suppression()})
	cfg := incognito.Config{K: 3, MaxSuppressed: 2}
	retain := cfg
	retain.RetainState = true
	cold, err := incognito.Anonymize(tab, qi, retain)
	if err != nil {
		t.Fatal(err)
	}
	var del, add [][]string
	for i := 0; i < tab.NumRows(); i += 37 {
		del = append(del, tab.Row(i))
	}
	for i := 0; i < 4; i++ {
		add = append(add, row())
	}
	got, err := incognito.AnonymizeDelta(context.Background(), tab, qi, cfg, cold.State(), add, del)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	hash := func(name string, s *incognito.RunState) string {
		path := filepath.Join(dir, name)
		if err := incognito.SaveRunState(path, s); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(raw))
	}
	if h := hash("capture.state", cold.State()); h != wantCapture {
		t.Errorf("captured state hashes to %s, want %s", h, wantCapture)
	}
	if h := hash("delta.state", got.State()); h != wantDelta {
		t.Errorf("delta run's state hashes to %s, want %s", h, wantDelta)
	}
}

// TestDeltaExplainsNonUTF8StateValues: a state file stores values as JSON
// strings, so a value that is not valid UTF-8 comes back as U+FFFD and no
// longer matches the table. Whether prepare then finds the value absent,
// a removal it cannot place, or a column count mismatch (when the table
// also holds a real U+FFFD), the error from the loaded file must say so;
// the same delta from the in-memory state succeeds.
func TestDeltaExplainsNonUTF8StateValues(t *testing.T) {
	for _, notes := range [][2]string{{"ok", "\x80"}, {"\ufffd", "\x80"}} {
		rng := rand.New(rand.NewSource(71))
		recs := make([][]string, 200)
		for i := range recs {
			recs[i] = append(censusRow(rng)[:3], notes[i%2])
		}
		tab, err := incognito.NewTable([]string{"Birthdate", "Sex", "Zipcode", "Note"}, recs)
		if err != nil {
			t.Fatal(err)
		}
		qi := append(patientsQI(), incognito.QI{Column: "Note", Hierarchy: incognito.Suppression()})
		cfg := incognito.Config{K: 2}
		retain := cfg
		retain.RetainState = true
		cold, err := incognito.Anonymize(tab, qi, retain)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.state")
		if err := incognito.SaveRunState(path, cold.State()); err != nil {
			t.Fatal(err)
		}
		loaded, err := incognito.LoadRunState(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, del := range [][][]string{{tab.Row(0)}, {tab.Row(1)}} {
			if _, err := incognito.AnonymizeDelta(context.Background(), tab, qi, cfg, cold.State(), nil, del); err != nil {
				t.Fatalf("notes %q, deleting %q from the in-memory state: %v", notes, del[0][3], err)
			}
			_, err = incognito.AnonymizeDelta(context.Background(), tab, qi, cfg, loaded, nil, del)
			if err == nil || !strings.Contains(err.Error(), "not valid UTF-8 were saved as U+FFFD") ||
				!strings.Contains(err.Error(), "in-memory states") {
				t.Fatalf("notes %q, deleting %q from a loaded state: got %v, want an error explaining the U+FFFD substitution",
					notes, del[0][3], err)
			}
		}
	}
}

// TestAnonymizeDeltaRefusesChangedHierarchy: a state captured under one
// hierarchy is refused by a delta under another of the same height that
// maps a value the table holds differently, with an error naming the
// attribute. Without the check, both deltas below answer wrongly: the
// first returns <A1>, which the edited table does not satisfy, and the
// second returns nothing, where <A1> is a solution.
func TestAnonymizeDeltaRefusesChangedHierarchy(t *testing.T) {
	h1 := map[string]string{"a": "X", "b": "X", "c": "Y", "d": "Y"}
	h2 := map[string]string{"a": "X", "c": "X", "b": "Y", "d": "Y"}
	tab, err := incognito.NewTable([]string{"A"}, [][]string{{"a"}, {"b"}, {"c"}, {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	qi := func(parents map[string]string) []incognito.QI {
		return []incognito.QI{{Column: "A", Hierarchy: incognito.Taxonomy(parents)}}
	}
	cfg := incognito.Config{K: 2}
	for _, tc := range []struct {
		name              string
		captured, run     map[string]string
		add               string
		coldSolutionCount int
	}{
		{"captured under H1, delta under H2 adding c", h1, h2, "c", 0},
		{"captured under H2, delta under H1 adding a", h2, h1, "a", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			retain := cfg
			retain.RetainState = true
			captured, err := incognito.Anonymize(tab, qi(tc.captured), retain)
			if err != nil {
				t.Fatal(err)
			}
			add := [][]string{{tc.add}}
			edited, err := incognito.ApplyRowDelta(tab, add, nil)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := incognito.Anonymize(edited, qi(tc.run), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Len() != tc.coldSolutionCount {
				t.Fatalf("cold run of the edited table has %d solutions, want %d", cold.Len(), tc.coldSolutionCount)
			}
			got, err := incognito.AnonymizeDelta(context.Background(), tab, qi(tc.run), cfg, captured.State(), add, nil)
			if err == nil {
				t.Fatalf("delta under another hierarchy accepted, solutions %v (a cold run finds %v)",
					solutionLevels(got.Result), solutionLevels(cold))
			}
			if !strings.Contains(err.Error(), `"A"`) {
				t.Fatalf("error %q does not name attribute \"A\"", err)
			}
		})
	}
}
