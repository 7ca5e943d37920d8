package incognito_test

import (
	"reflect"
	"strings"
	"testing"

	incognito "incognito"
)

// patientsTable builds the paper's running example through the public API.
func patientsTable(t *testing.T) *incognito.Table {
	t.Helper()
	tab, err := incognito.NewTable(
		[]string{"Birthdate", "Sex", "Zipcode", "Disease"},
		[][]string{
			{"1/21/76", "Male", "53715", "Flu"},
			{"4/13/86", "Female", "53715", "Hepatitis"},
			{"2/28/76", "Male", "53703", "Brochitis"},
			{"1/21/76", "Male", "53703", "Broken Arm"},
			{"4/13/86", "Female", "53706", "Sprained Ankle"},
			{"2/28/76", "Female", "53706", "Hang Nail"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func patientsQI() []incognito.QI {
	return []incognito.QI{
		{Column: "Birthdate", Hierarchy: incognito.Suppression()},
		{Column: "Sex", Hierarchy: incognito.Taxonomy(map[string]string{"Male": "Person", "Female": "Person"})},
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(2)},
	}
}

func TestAnonymizePatientsAllAlgorithms(t *testing.T) {
	tab := patientsTable(t)
	complete := []incognito.Algorithm{
		incognito.BasicIncognito,
		incognito.SuperRootsIncognito,
		incognito.CubeIncognito,
		incognito.BottomUp,
		incognito.BottomUpRollup,
		incognito.MaterializedIncognito,
	}
	wantLevels := [][]int{
		{1, 1, 0}, {0, 1, 2}, {1, 0, 2}, {1, 1, 1}, {1, 1, 2},
	}
	for _, algo := range complete {
		res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Complete() {
			t.Fatalf("%v should report a complete result", algo)
		}
		if res.Len() != len(wantLevels) {
			t.Fatalf("%v found %d solutions, want %d", algo, res.Len(), len(wantLevels))
		}
		for i, s := range res.Solutions() {
			if !reflect.DeepEqual(s.Levels(), wantLevels[i]) {
				t.Fatalf("%v: solution %d = %v, want %v", algo, i, s.Levels(), wantLevels[i])
			}
		}
	}
}

func TestAnonymizeBinarySearch(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: incognito.BinarySearch})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Fatal("binary search must not claim completeness")
	}
	if res.Len() != 1 {
		t.Fatalf("binary search returned %d solutions, want 1", res.Len())
	}
	s := res.Solutions()[0]
	if s.Height() != 2 {
		t.Fatalf("binary search solution height = %d, want 2", s.Height())
	}
}

func TestBestUnderCriteria(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Height-minimal: <B1, S1, Z0> at height 2.
	best, ok := res.Best(incognito.MinHeight())
	if !ok || !reflect.DeepEqual(best.Levels(), []int{1, 1, 0}) {
		t.Fatalf("MinHeight best = %v", best.Levels())
	}
	// Nil criterion defaults to MinHeight.
	d, _ := res.Best(nil)
	if !reflect.DeepEqual(d.Levels(), best.Levels()) {
		t.Fatal("nil criterion should default to MinHeight")
	}
	// §2.1's flexibility example: insist Sex stays intact. The only
	// solution with Sex at level 0 is <B1, S0, Z2>.
	sexIntact, ok := res.Best(incognito.PreserveColumns("Sex"))
	if !ok || !reflect.DeepEqual(sexIntact.Levels(), []int{1, 0, 2}) {
		t.Fatalf("PreserveColumns(Sex) best = %v, want [1 0 2]", sexIntact.Levels())
	}
	// Same preference expressed as weights.
	weighted, _ := res.Best(incognito.WeightedHeight(map[string]float64{"Sex": 100}))
	if !reflect.DeepEqual(weighted.Levels(), []int{1, 0, 2}) {
		t.Fatalf("WeightedHeight best = %v, want [1 0 2]", weighted.Levels())
	}
	// Discernibility prefers the finest partition.
	dm, _ := res.Best(incognito.MinDiscernibility())
	for _, s := range res.Solutions() {
		if s.Discernibility() < dm.Discernibility() {
			t.Fatalf("MinDiscernibility missed a better solution: %v", s.Levels())
		}
	}
	// Precision: base levels score higher.
	prec, _ := res.Best(incognito.MaxPrecision())
	for _, s := range res.Solutions() {
		if s.Precision() > prec.Precision() {
			t.Fatalf("MaxPrecision missed a better solution: %v", s.Levels())
		}
	}
	if mac, ok := res.Best(incognito.MinAvgClassSize()); ok {
		for _, s := range res.Solutions() {
			if s.AvgClassSize() < mac.AvgClassSize() {
				t.Fatalf("MinAvgClassSize missed a better solution: %v", s.Levels())
			}
		}
	}
}

func TestSolutionRendering(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best(incognito.MinHeight())
	if got := best.String(); got != "<Birthdate1, Sex1, Zipcode0>" {
		t.Fatalf("String() = %q", got)
	}
	if !reflect.DeepEqual(best.Columns(), []string{"Birthdate", "Sex", "Zipcode"}) {
		t.Fatalf("Columns() = %v", best.Columns())
	}
	names := best.LevelNames()
	if names[1] != "Sex1" {
		t.Fatalf("LevelNames() = %v", names)
	}
}

func TestApplyThroughPublicAPI(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	best, _ := res.Best(incognito.MinHeight()) // <B1, S1, Z0>
	view, err := best.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 6 {
		t.Fatalf("view has %d rows, want 6", view.NumRows())
	}
	for r := 0; r < view.NumRows(); r++ {
		if view.Value(r, 0) != "*" || view.Value(r, 1) != "Person" {
			t.Fatalf("row %d not generalized: %v", r, view.Row(r))
		}
		if strings.Contains(view.Value(r, 2), "*") {
			t.Fatalf("Zipcode should be released intact at level 0, got %q", view.Value(r, 2))
		}
	}
	if best.Suppressed() != 0 {
		t.Fatalf("Suppressed = %d, want 0", best.Suppressed())
	}
}

func TestAnonymizeValidation(t *testing.T) {
	tab := patientsTable(t)
	if _, err := incognito.Anonymize(nil, patientsQI(), incognito.Config{K: 2}); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := incognito.Anonymize(tab, nil, incognito.Config{K: 2}); err == nil {
		t.Fatal("empty QI accepted")
	}
	if _, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, MaxSuppressed: -1}); err == nil {
		t.Fatal("negative MaxSuppressed accepted")
	}
	qi := patientsQI()
	qi[0].Column = "Nope"
	if _, err := incognito.Anonymize(tab, qi, incognito.Config{K: 2}); err == nil {
		t.Fatal("missing column accepted")
	}
	qi = patientsQI()
	qi[0].Hierarchy = nil
	if _, err := incognito.Anonymize(tab, qi, incognito.Config{K: 2}); err == nil {
		t.Fatal("nil hierarchy accepted")
	}
	// A taxonomy that does not cover the data must surface the Bind error.
	qi = patientsQI()
	qi[1].Hierarchy = incognito.Taxonomy(map[string]string{"Male": "Person"})
	if _, err := incognito.Anonymize(tab, qi, incognito.Config{K: 2}); err == nil {
		t.Fatal("non-total taxonomy accepted")
	}
	// Deferred constructor errors surface too.
	qi = patientsQI()
	qi[2].Hierarchy = incognito.RoundDigits(0)
	if _, err := incognito.Anonymize(tab, qi, incognito.Config{K: 2}); err == nil {
		t.Fatal("invalid RoundDigits accepted")
	}
	if _, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2, Algorithm: incognito.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestHierarchyConstructorErrors(t *testing.T) {
	tab := patientsTable(t)
	cases := []incognito.QI{
		{Column: "Zipcode", Hierarchy: incognito.Taxonomy()},
		{Column: "Zipcode", Hierarchy: incognito.Intervals(0)},
		{Column: "Zipcode", Hierarchy: incognito.Intervals(0, -5)},
		{Column: "Zipcode", Hierarchy: incognito.Intervals(0, 5, 12)},
		{Column: "Zipcode", Hierarchy: incognito.Custom()},
		{Column: "Zipcode", Hierarchy: incognito.RoundDigits(65)},
	}
	for i, q := range cases {
		if _, err := incognito.Anonymize(tab, []incognito.QI{q}, incognito.Config{K: 2}); err == nil {
			t.Fatalf("case %d: invalid hierarchy accepted", i)
		}
	}
	// The rounding cap is inclusive: the tallest allowed height binds.
	q := []incognito.QI{{Column: "Zipcode", Hierarchy: incognito.RoundDigits(64)}}
	if _, err := incognito.RunFingerprint(tab, q, incognito.Config{K: 2}); err != nil {
		t.Fatalf("RoundDigits(64): %v", err)
	}
}

func TestCustomHierarchy(t *testing.T) {
	tab := patientsTable(t)
	firstDigit := incognito.Custom(incognito.Level{
		Name: "ZipRegion",
		Map:  func(v string) (string, error) { return v[:1] + "****", nil },
	})
	res, err := incognito.Anonymize(tab, []incognito.QI{
		{Column: "Zipcode", Hierarchy: firstDigit},
	}, incognito.Config{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	// All six rows share 5****, so level 1 is 6-anonymous; level 0 is not.
	want := [][]int{{1}}
	var got [][]int
	for _, s := range res.Solutions() {
		got = append(got, s.Levels())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("solutions = %v, want %v", got, want)
	}
}

func TestSuppressionThresholdPublicAPI(t *testing.T) {
	tab, err := incognito.NewTable(
		[]string{"Zip"},
		[][]string{{"11111"}, {"11111"}, {"11111"}, {"11112"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	qi := []incognito.QI{{Column: "Zip", Hierarchy: incognito.RoundDigits(1)}}
	// Without suppression, level 0 fails (the 22222 singleton).
	res, err := incognito.Anonymize(tab, qi, incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("solutions = %d, want only the generalized level", res.Len())
	}
	// Allowing one suppressed tuple admits level 0.
	res, err = incognito.Anonymize(tab, qi, incognito.Config{K: 2, MaxSuppressed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("solutions = %d, want 2", res.Len())
	}
	base, _ := res.Best(incognito.MinHeight())
	view, err := base.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 3 {
		t.Fatalf("suppressed view has %d rows, want 3", view.NumRows())
	}
	if base.Suppressed() != 1 {
		t.Fatalf("Suppressed = %d, want 1", base.Suppressed())
	}
}

func TestResultStatsExposed(t *testing.T) {
	tab := patientsTable(t)
	res, err := incognito.Anonymize(tab, patientsQI(), incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.NodesChecked == 0 || st.Candidates == 0 || st.TableScans == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
}

func TestTableCSVRoundTripPublicAPI(t *testing.T) {
	tab := patientsTable(t)
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := incognito.ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab.Rows(), back.Rows()) {
		t.Fatal("CSV round trip changed data")
	}
	if back.ColumnIndex("Sex") != 1 || back.ColumnIndex("none") != -1 {
		t.Fatal("ColumnIndex wrong after round trip")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	names := map[incognito.Algorithm]string{
		incognito.BasicIncognito:        "Basic Incognito",
		incognito.SuperRootsIncognito:   "Super-roots Incognito",
		incognito.CubeIncognito:         "Cube Incognito",
		incognito.BottomUp:              "Bottom-Up (w/o rollup)",
		incognito.BottomUpRollup:        "Bottom-Up (w/ rollup)",
		incognito.BinarySearch:          "Binary Search",
		incognito.MaterializedIncognito: "Materialized Incognito",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}
