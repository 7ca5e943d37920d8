package hierarchy

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"incognito/internal/relation"
)

// FromDimensionRows builds a Spec from an explicit, fully materialized
// dimension table: each record lists a base value followed by its
// generalization at every level, most specific first — exactly the row
// format of the star-schema dimension tables of Fig. 4/Fig. 6 (and the
// interchange format popularized by the ARX toolkit). names optionally
// supplies the level names (len(names) == record length − 1); pass nil for
// generated names.
//
// All records must have the same length (≥ 2) and distinct base values;
// chain well-formedness (each induced γ many-to-one) is verified when the
// spec is bound. The records are dictionary-encoded here, so the spec
// binds by codes.
func FromDimensionRows(attr string, records [][]string, names []string) (*Spec, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("hierarchy %s: empty dimension table", attr)
	}
	width := len(records[0])
	if width < 2 {
		return nil, fmt.Errorf("hierarchy %s: dimension rows need a base value and at least one level", attr)
	}
	if names != nil && len(names) != width-1 {
		return nil, fmt.Errorf("hierarchy %s: %d level names for %d levels", attr, len(names), width-1)
	}
	cols := make([]string, width)
	for i := range cols {
		cols[i] = strconv.Itoa(i)
	}
	t := relation.MustNewTable(cols...)
	for i, rec := range records {
		if len(rec) != width {
			return nil, fmt.Errorf("hierarchy %s: record %d has %d values, want %d", attr, i, len(rec), width)
		}
		if _, dup := t.Dict(0).Code(rec[0]); dup {
			return nil, fmt.Errorf("hierarchy %s: duplicate base value %q", attr, rec[0])
		}
		_ = t.AppendRow(rec) // cannot fail: the width is checked above
	}
	return dimensionSpec(attr, t, names), nil
}

// ReadDimensionCSV reads a dimension table from CSV. With header true, the
// first record's trailing columns name the levels. The spec keeps the
// table as the CSV reader encoded it and binds by codes.
func ReadDimensionCSV(attr string, r io.Reader, header bool) (*Spec, error) {
	t, err := relation.ReadCSV(r, header)
	if err != nil {
		return nil, fmt.Errorf("hierarchy %s: %w", attr, err)
	}
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("hierarchy %s: empty dimension table", attr)
	}
	if t.NumCols() < 2 {
		return nil, fmt.Errorf("hierarchy %s: dimension rows need a base value and at least one level", attr)
	}
	// Codes number values by first appearance, so the base values are
	// distinct exactly when every row r holds code r.
	for r, c := range t.Codes(0) {
		if int(c) != r {
			return nil, fmt.Errorf("hierarchy %s: duplicate base value %q", attr, t.Dict(0).Value(c))
		}
	}
	var names []string
	if header {
		names = t.Columns()[1:]
	}
	return dimensionSpec(attr, t, names), nil
}

// dimensionSpec wraps a validated dimension table — distinct base values
// in column 0, one column per level — as a Spec that Bind joins by codes.
// Each level's FromBase reads the same table, for callers that generalize
// one value at a time.
func dimensionSpec(attr string, t *relation.Table, names []string) *Spec {
	levels := make([]Level, t.NumCols()-1)
	for l := range levels {
		name := fmt.Sprintf("%s%d", attr, l+1)
		if names != nil {
			name = names[l]
		}
		col := l + 1
		levels[l] = Level{Name: name, FromBase: func(v string) (string, error) {
			r, ok := t.Dict(0).Code(v)
			if !ok {
				return "", errNoMapping
			}
			return t.Value(int(r), col), nil
		}}
	}
	return &Spec{Attr: attr, Levels: levels, dim: t}
}

// LoadDimensionCSV reads a dimension table from the named CSV file, whose
// first record is treated as a header naming the levels.
func LoadDimensionCSV(attr, path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDimensionCSV(attr, f, true)
}
