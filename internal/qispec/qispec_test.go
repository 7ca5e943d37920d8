package qispec

import (
	"strings"
	"testing"
)

// everyInlineKind names one attribute per hierarchy kind that reads no
// file.
const everyInlineKind = "A=suppress;B=round:2;C=date;D=interval:0:10,50"

// parseQIErrorCases maps malformed specs to a fragment of their error.
var parseQIErrorCases = map[string]string{
	"":                 "empty -qi spec",
	"  ;  ;":           "empty -qi spec",
	"NoEquals":         "bad QI entry",
	"A=martian":        "unknown hierarchy",
	"A=round:many":     "level count",
	"A=interval:5":     "interval wants",
	"A=interval:x:10":  "interval origin",
	"A=interval:0:ten": "interval width",
}

// canonicalCases maps specs to their Canonical form.
var canonicalCases = map[string]string{
	"A=suppress;B=round:2":        "A=suppress;B=round:2",
	" A=suppress ;  B=round:2 ; ": "A=suppress;B=round:2",
	";;A=suppress;;":              "A=suppress",
	"":                            "",
}

func TestParseQIAcceptsEveryInlineKind(t *testing.T) {
	qi, err := ParseQI(everyInlineKind, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qi) != 4 {
		t.Fatalf("parsed %d columns, want 4", len(qi))
	}
	for i, want := range []string{"A", "B", "C", "D"} {
		if qi[i].Column != want || qi[i].Hierarchy == nil {
			t.Errorf("entry %d = %q (hierarchy nil=%v), want %q", i, qi[i].Column, qi[i].Hierarchy == nil, want)
		}
	}
}

func TestParseQIErrors(t *testing.T) {
	for spec, want := range parseQIErrorCases {
		if _, err := ParseQI(spec, Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseQI(%q) err = %v, want mention of %q", spec, err, want)
		}
	}
}

func TestFileHierarchiesGatedByOptions(t *testing.T) {
	for _, spec := range []string{"A=csv:/tmp/h.csv", "A=taxonomy:/tmp/h.json"} {
		if _, err := ParseQI(spec, Options{}); err == nil || !strings.Contains(err.Error(), "not allowed here") {
			t.Errorf("ParseQI(%q) without AllowFiles = %v, want refusal", spec, err)
		}
		// With AllowFiles the gate opens; the (missing) file itself may
		// still fail, but never with the policy refusal.
		if _, err := ParseQI(spec, Options{AllowFiles: true}); err != nil && strings.Contains(err.Error(), "not allowed here") {
			t.Errorf("ParseQI(%q) with AllowFiles still refused: %v", spec, err)
		}
	}
}

func TestCanonical(t *testing.T) {
	for in, want := range canonicalCases {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, name := range []string{"basic", "superroots", "cube", "materialized", "bottomup", "bottomup-rollup", "binary"} {
		if _, err := ParseAlgorithm(name); err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestParseCriterion(t *testing.T) {
	for _, name := range []string{"height", "precision", "discernibility", "avgclass"} {
		c, err := ParseCriterion(name)
		if err != nil || c == nil {
			t.Errorf("ParseCriterion(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ParseCriterion("vibes"); err == nil {
		t.Error("unknown criterion accepted")
	}
}
