package hierarchy_test

import (
	"bytes"
	"reflect"
	"testing"

	"incognito/internal/dataset"
	"incognito/internal/hierarchy"
)

// TestDimensionCSVBindsLikeFromBase binds every Adults and Lands End
// hierarchy through its dimension CSV twice: by codes, as the spec
// ReadDimensionCSV returns binds, and value by value through the same
// spec's FromBase functions. Both must equal the hierarchy the dataset
// bound from its own spec: level names, dictionaries in code order, MapTo
// and Step.
func TestDimensionCSVBindsLikeFromBase(t *testing.T) {
	for _, d := range []*dataset.Dataset{dataset.Adults(3000, 1), dataset.LandsEnd(20000, 2)} {
		for i, want := range d.Hierarchies {
			dict := d.Table.Dict(d.QICols[i])
			var file bytes.Buffer
			if err := want.DimensionTable().WriteCSV(&file); err != nil {
				t.Fatal(err)
			}
			spec, err := hierarchy.ReadDimensionCSV(want.Attr(), &file, true)
			if err != nil {
				t.Fatalf("%s %s: %v", d.Name, want.Attr(), err)
			}
			byCodes, err := spec.Bind(dict)
			if err != nil {
				t.Fatalf("%s %s: by codes: %v", d.Name, want.Attr(), err)
			}
			byValues, err := hierarchy.NewSpec(spec.Attr, spec.Levels...).Bind(dict)
			if err != nil {
				t.Fatalf("%s %s: by values: %v", d.Name, want.Attr(), err)
			}
			if !reflect.DeepEqual(byCodes, byValues) {
				t.Errorf("%s %s: binding by codes differs from binding through FromBase", d.Name, want.Attr())
			}
			if !reflect.DeepEqual(byCodes, want) {
				t.Errorf("%s %s: binding the dimension CSV differs from the dataset's hierarchy", d.Name, want.Attr())
			}
		}
	}
}
