package hierarchy

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"incognito/internal/relation"
)

// refReadDimensionCSV is the map-based dimension-table reader the coded
// one replaced, kept as the fuzz oracle: it materializes the parsed CSV as
// string rows, builds one base-value → level-value map per level, and
// leaves Bind to evaluate the maps value by value through FromBase.
func refReadDimensionCSV(attr string, data []byte, header bool) (*Spec, error) {
	t, err := relation.ReadCSV(bytes.NewReader(data), header)
	if err != nil {
		return nil, fmt.Errorf("hierarchy %s: %w", attr, err)
	}
	var names []string
	if header {
		names = t.Columns()[1:]
	}
	records := t.Rows()
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
	perLevel := make([]map[string]string, width-1)
	for l := range perLevel {
		perLevel[l] = make(map[string]string, len(records))
	}
	seen := make(map[string]bool, len(records))
	for i, rec := range records {
		if len(rec) != width {
			return nil, fmt.Errorf("hierarchy %s: record %d has %d values, want %d", attr, i, len(rec), width)
		}
		if seen[rec[0]] {
			return nil, fmt.Errorf("hierarchy %s: duplicate base value %q", attr, rec[0])
		}
		seen[rec[0]] = true
		for l := 1; l < width; l++ {
			perLevel[l-1][rec[0]] = rec[l]
		}
	}
	levels := make([]Level, width-1)
	for l := range levels {
		name := fmt.Sprintf("%s%d", attr, l+1)
		if names != nil {
			name = names[l]
		}
		levels[l] = Mapped(name, perLevel[l])
	}
	return NewSpec(attr, levels...), nil
}

// fuzzDict builds the dictionary a fuzz case binds to: each byte of pick
// encodes one value of the pool — every value the CSV parses to, plus
// extra, which the file may lack — so dictionaries range over subsets and
// orders of the base values with the occasional stranger.
func fuzzDict(data []byte, header bool, pick []byte, extra string) *relation.Dict {
	pool := []string{extra}
	if t, err := relation.ReadCSV(bytes.NewReader(data), header); err == nil {
		for _, rec := range t.Rows() {
			pool = append(pool, rec...)
		}
	}
	d := relation.NewDict()
	for _, b := range pick {
		d.Encode(pool[int(b)%len(pool)])
	}
	return d
}

// FuzzDimensionCSV checks the dimension-table decoder of csv: hierarchy
// files and its binding by codes against the map-based reference: on any
// bytes, both read and bind to the same Hierarchy, or fail with the same
// error text, and neither panics.
func FuzzDimensionCSV(f *testing.F) {
	f.Add([]byte("base,Z1,Z2\n53715,5371*,537**\n53710,5371*,537**\n53706,5370*,537**\n"), true, []byte{1, 4, 7}, "53703")
	f.Add([]byte("a,G,P\nb,G,Q\n"), false, []byte{0, 1, 4}, "a")
	f.Add([]byte("base,L1\nx,1\nx,2\n"), true, []byte{1}, "x")
	f.Add([]byte("base\nx\n"), true, []byte{1}, "x")
	f.Add([]byte("base,L1\n"), true, []byte{}, "")
	f.Add([]byte("a,b\nc\n"), false, []byte{1}, "a")
	f.Add([]byte("v,\"q,1\",*\nw,\"q,1\",*\ny,r,*\n"), false, []byte{3, 0, 6, 9}, "z")
	f.Fuzz(func(t *testing.T, data []byte, header bool, pick []byte, extra string) {
		got, gotErr := ReadDimensionCSV("A", bytes.NewReader(data), header)
		want, wantErr := refReadDimensionCSV("A", data, header)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("read: got error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		dict := fuzzDict(data, header, pick, extra)
		gotH, gotErr := got.Bind(dict)
		wantH, wantErr := want.Bind(dict)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("bind: got error %v, reference %v", gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(gotH, wantH) {
			t.Fatalf("bind: hierarchies differ\ngot  %+v\nwant %+v", gotH, wantH)
		}
	})
}
