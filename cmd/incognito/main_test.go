package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	incognito "incognito"
)

func TestParseQISpec(t *testing.T) {
	qi, err := parseQISpec("Age=interval:0:5,10,20; Gender=suppress;Zip=round:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(qi) != 3 {
		t.Fatalf("parsed %d attributes, want 3", len(qi))
	}
	if qi[0].Column != "Age" || qi[1].Column != "Gender" || qi[2].Column != "Zip" {
		t.Fatalf("columns = %v, %v, %v", qi[0].Column, qi[1].Column, qi[2].Column)
	}
	// Trailing separators are tolerated.
	if _, err := parseQISpec("A=suppress;"); err != nil {
		t.Fatal(err)
	}
}

func TestParseQISpecErrors(t *testing.T) {
	cases := []string{
		"",
		";;",
		"NoEquals",
		"Col=unknownhier",
		"Col=round:x",
		"Col=interval:abc",
		"Col=interval:0",
		"Col=interval:0:x",
		"Col=taxonomy:/definitely/missing.json",
	}
	for _, c := range cases {
		if _, err := parseQISpec(c); err == nil {
			t.Fatalf("spec %q accepted", c)
		}
	}
}

func TestParseHierarchyTaxonomyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sex.json")
	parents := []map[string]string{{"Male": "Person", "Female": "Person"}}
	data, err := json.Marshal(parents)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := parseHierarchy("taxonomy:" + path)
	if err != nil {
		t.Fatal(err)
	}
	// Use it end to end on a tiny table.
	tab, err := incognito.NewTable([]string{"Sex"}, [][]string{{"Male"}, {"Female"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := incognito.Anonymize(tab, []incognito.QI{{Column: "Sex", Hierarchy: h}}, incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("solutions = %d, want 1 (only full generalization)", res.Len())
	}

	// Malformed JSON surfaces an error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseHierarchy("taxonomy:" + bad); err == nil {
		t.Fatal("malformed taxonomy file accepted")
	}
}

func TestParseAlgorithm(t *testing.T) {
	want := map[string]incognito.Algorithm{
		"basic":           incognito.BasicIncognito,
		"superroots":      incognito.SuperRootsIncognito,
		"cube":            incognito.CubeIncognito,
		"bottomup":        incognito.BottomUp,
		"bottomup-rollup": incognito.BottomUpRollup,
		"binary":          incognito.BinarySearch,
	}
	for name, algo := range want {
		got, err := parseAlgorithm(name)
		if err != nil || got != algo {
			t.Fatalf("parseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := parseAlgorithm("quantum"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseCriterion(t *testing.T) {
	for _, name := range []string{"height", "precision", "discernibility", "avgclass"} {
		c, err := parseCriterion(name)
		if err != nil || c == nil {
			t.Fatalf("parseCriterion(%q) failed: %v", name, err)
		}
	}
	if _, err := parseCriterion("vibes"); err == nil {
		t.Fatal("unknown criterion accepted")
	}
}

func TestParseHierarchyInterval(t *testing.T) {
	h, err := parseHierarchy("interval:0:5,10")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := incognito.NewTable([]string{"Age"}, [][]string{{"12"}, {"13"}, {"17"}, {"18"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := incognito.Anonymize(tab, []incognito.QI{{Column: "Age", Hierarchy: h}}, incognito.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("no solutions")
	}
}

func TestDemoTable(t *testing.T) {
	table, qi, err := demoTable()
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 6 || len(qi) != 3 {
		t.Fatalf("demo table is %d rows with %d QI attributes, want 6/3", table.NumRows(), len(qi))
	}
}
