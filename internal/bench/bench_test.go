package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"incognito/internal/dataset"
)

func small() *dataset.Dataset { return dataset.Adults(400, 1) }

// checkRenders smoke-tests a comparison report's two output formats: the
// JSON decodes strictly back into the same report, every cell is
// identical, and the table carries one line per cell plus each of wants.
func checkRenders(t *testing.T, r *Report, wants ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var decoded Report
	if err := dec.Decode(&decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(decoded.Cells) == 0 || !reflect.DeepEqual(decoded.Cells[0].Counters, r.Cells[0].Counters) {
		t.Fatalf("decoded report lost its cells: %+v", decoded)
	}
	for _, c := range r.Cells {
		if !c.Identical {
			t.Errorf("cell %s: not identical", c.Key())
		}
	}

	buf.Reset()
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if lines := strings.Count(out, "\n"); lines != 1+len(r.Cells) {
		t.Errorf("table has %d lines, want a header and %d cells:\n%s", lines, len(r.Cells), out)
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAllAlgorithmsAgree(t *testing.T) {
	d := small()
	var wantSolutions, wantMin int
	for i, a := range AllAlgos {
		m, err := Run(context.Background(), Obs{}, d, 3, 2, a, Sequential)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if m.Elapsed <= 0 {
			t.Fatalf("%v: non-positive elapsed time", a)
		}
		if a == BinarySearch {
			// Binary search returns one solution; its height must match.
			if m.MinHeight != wantMin {
				t.Fatalf("binary search min height %d, others %d", m.MinHeight, wantMin)
			}
			continue
		}
		if i == 0 {
			wantSolutions, wantMin = m.Solutions, m.MinHeight
			continue
		}
		if m.Solutions != wantSolutions || m.MinHeight != wantMin {
			t.Fatalf("%v disagrees: %d solutions (want %d), min height %d (want %d)",
				a, m.Solutions, wantSolutions, m.MinHeight, wantMin)
		}
	}
}

func TestRunCubeSeparatesPhases(t *testing.T) {
	d := small()
	m, err := Run(context.Background(), Obs{}, d, 4, 2, CubeIncognito, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if m.BuildTime <= 0 || m.AnonTime <= 0 {
		t.Fatalf("cube phases not measured: build %v, anon %v", m.BuildTime, m.AnonTime)
	}
	if m.BuildTime+m.AnonTime > m.Elapsed+m.Elapsed/2 {
		t.Fatalf("phase times inconsistent with total: %v + %v vs %v", m.BuildTime, m.AnonTime, m.Elapsed)
	}
}

func TestRunErrors(t *testing.T) {
	d := small()
	if _, err := Run(context.Background(), Obs{}, d, 0, 2, BasicIncognito, Sequential); err == nil {
		t.Fatal("QI size 0 accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 99, 2, BasicIncognito, Sequential); err == nil {
		t.Fatal("oversized QI accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 3, 0, BasicIncognito, Sequential); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Run(context.Background(), Obs{}, d, 3, 2, Algo(42), Sequential); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgo(t *testing.T) {
	for _, name := range []string{"bottomup", "bottomup-rollup", "binary", "basic", "cube", "superroots"} {
		if _, err := ParseAlgo(name); err != nil {
			t.Fatalf("ParseAlgo(%q): %v", name, err)
		}
	}
	if _, err := ParseAlgo("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestFig10Sweep(t *testing.T) {
	d := small()
	var logged []string
	s, err := Fig10(context.Background(), Obs{}, d, 2, 3, 4, []Algo{BasicIncognito, BinarySearch}, func(f string, a ...interface{}) {
		logged = append(logged, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RowNames) != 2 || len(s.ColNames) != 2 {
		t.Fatalf("sweep shape %dx%d, want 2x2", len(s.RowNames), len(s.ColNames))
	}
	if len(logged) != 4 {
		t.Fatalf("progress called %d times, want 4", len(logged))
	}
	var buf bytes.Buffer
	if err := s.WriteElapsed(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "QID size") || !strings.Contains(out, "Basic Incognito") {
		t.Fatalf("table output malformed:\n%s", out)
	}
	buf.Reset()
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("CSV has %d lines, want 3:\n%s", lines, buf.String())
	}
}

func TestFig11Staggered(t *testing.T) {
	d := small()
	s, err := Fig11(context.Background(), Obs{}, d, 4, []int64{2, 5}, []Algo{BinarySearch, BasicIncognito},
		map[Algo]int{BinarySearch: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.ColNames[0], "QID=3") || !strings.Contains(s.ColNames[1], "QID=4") {
		t.Fatalf("stagger not reflected in columns: %v", s.ColNames)
	}
}

func TestNodesTableShape(t *testing.T) {
	d := small()
	s, err := NodesTable(context.Background(), Obs{}, d, 2, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteNodes(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Incognito") {
		t.Fatalf("nodes table malformed:\n%s", buf.String())
	}
	// The Incognito column never exceeds the bottom-up column by more than
	// the sub-lattice overhead; at these sizes it should simply be ≤.
	for r := range s.Cells {
		bu, inc := s.Cells[r][0], s.Cells[r][1]
		if inc.Stats.NodesChecked > bu.Stats.NodesChecked {
			t.Fatalf("QID %s: incognito checked %d nodes, bottom-up %d",
				s.RowNames[r], inc.Stats.NodesChecked, bu.Stats.NodesChecked)
		}
	}
}

func TestFig12Breakdown(t *testing.T) {
	d := small()
	s, err := Fig12(context.Background(), Obs{}, d, 2, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteElapsed(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Cube Build") {
		t.Fatalf("fig12 table malformed:\n%s", buf.String())
	}
}

func TestDescribe(t *testing.T) {
	var buf bytes.Buffer
	if err := Describe(small(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Adults", "Age", "74", "Taxonomy tree(2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe output missing %q:\n%s", want, out)
		}
	}
}
