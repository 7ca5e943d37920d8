package qispec

import (
	"slices"
	"testing"

	incognito "incognito"
)

// FuzzParseQI checks the QI-spec grammar on arbitrary input, with file
// hierarchies off so no input reads the filesystem:
//   - ParseQI never panics;
//   - Canonical is idempotent;
//   - a spec and its Canonical form both fail, or both parse to the same
//     column names;
//   - a parsed spec binds against a two-row table of its columns without
//     panicking, whether or not binding succeeds.
//
// Binding builds every hierarchy level, so this also checks that no short
// spec can size that work (round:N is capped).
func FuzzParseQI(f *testing.F) {
	f.Add(everyInlineKind)
	for spec := range parseQIErrorCases {
		f.Add(spec)
	}
	for spec := range canonicalCases {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		qi, err := ParseQI(spec, Options{})
		canon := Canonical(spec)
		if again := Canonical(canon); again != canon {
			t.Fatalf("Canonical(%q) = %q, but Canonical of that is %q", spec, canon, again)
		}
		qiCanon, errCanon := ParseQI(canon, Options{})
		if (err == nil) != (errCanon == nil) {
			t.Fatalf("ParseQI(%q) err = %v, but ParseQI(%q) err = %v", spec, err, canon, errCanon)
		}
		if err != nil {
			return
		}
		if got, want := columns(qiCanon), columns(qi); !slices.Equal(got, want) {
			t.Fatalf("ParseQI(%q) columns %q, but its Canonical form gives %q", spec, want, got)
		}
		var names []string // the table's columns: each QI column once
		for _, c := range columns(qi) {
			if !slices.Contains(names, c) {
				names = append(names, c)
			}
		}
		rows := [][]string{make([]string, len(names)), make([]string, len(names))}
		for i := range names {
			rows[0][i], rows[1][i] = "53715", "53703"
		}
		tab, err := incognito.NewTable(names, rows)
		if err != nil {
			return // a column name no table accepts, such as ""
		}
		_, _ = incognito.RunFingerprint(tab, qi, incognito.Config{K: 2})
	})
}

func columns(qi []incognito.QI) []string {
	out := make([]string, len(qi))
	for i, q := range qi {
		out[i] = q.Column
	}
	return out
}
