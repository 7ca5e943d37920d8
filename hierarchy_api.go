package incognito

import (
	"fmt"

	"incognito/internal/hierarchy"
)

// Hierarchy describes how one quasi-identifier attribute generalizes: a
// chain of domains from the attribute's base values up to (usually) full
// suppression, per §2 of the paper. A Hierarchy is unbound — it is attached
// to a concrete column by Anonymize, which validates it against the
// column's actual values.
type Hierarchy struct {
	build func(attr string) *hierarchy.Spec
	err   error
}

// Suppression returns the height-1 hierarchy that replaces every value with
// "*" — the paper's generalization for low-cardinality attributes such as
// Gender (Fig. 9).
func Suppression() *Hierarchy {
	return &Hierarchy{build: hierarchy.SuppressionSpec}
}

// Taxonomy returns a hierarchy defined by successive parent maps:
// parents[0] maps base values to their first-level ancestors, parents[1]
// maps those ancestors upward, and so on (Fig. 2(e,f); the "taxonomy tree"
// generalizations of Fig. 9). Values missing from a map are reported as an
// error by Anonymize.
func Taxonomy(parents ...map[string]string) *Hierarchy {
	if len(parents) == 0 {
		return &Hierarchy{err: fmt.Errorf("incognito: taxonomy needs at least one parent map")}
	}
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		return hierarchy.Taxonomy(attr, parents...)
	}}
}

// Intervals returns a hierarchy that buckets integer values into
// successively wider half-open ranges anchored at origin, with a final
// suppression level — e.g. Intervals(0, 5, 10, 20) is the paper's
// "5-, 10-, 20-year ranges" Age hierarchy of height 4. Each width must
// divide the next.
func Intervals(origin int, widths ...int) *Hierarchy {
	if len(widths) == 0 {
		return &Hierarchy{err: fmt.Errorf("incognito: intervals need at least one width")}
	}
	for i, w := range widths {
		if w <= 0 {
			return &Hierarchy{err: fmt.Errorf("incognito: interval width %d must be positive", w)}
		}
		if i > 0 && w%widths[i-1] != 0 {
			return &Hierarchy{err: fmt.Errorf("incognito: interval width %d does not divide %d", widths[i-1], w)}
		}
	}
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		return hierarchy.IntervalSpec(attr, origin, widths...)
	}}
}

// maxRoundHeight caps RoundDigits. Binding builds and evaluates every
// level, so an unbounded height from a request spec ("round:N") would
// size that work; a level past a value's length stars out nothing new.
const maxRoundHeight = 64

// RoundDigits returns the digit-rounding hierarchy of the given height:
// each level replaces one more trailing character with '*' (Fig. 2(a,b):
// 53715 → 5371* → 537**). The height must be between 1 and 64.
func RoundDigits(height int) *Hierarchy {
	if height < 1 {
		return &Hierarchy{err: fmt.Errorf("incognito: rounding height %d must be at least 1", height)}
	}
	if height > maxRoundHeight {
		return &Hierarchy{err: fmt.Errorf("incognito: rounding height %d exceeds the limit of %d", height, maxRoundHeight)}
	}
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		return hierarchy.RoundDigitsSpec(attr, height)
	}}
}

// Dates returns the order-date hierarchy of Fig. 9: "M/D/Y" → "M/Y" → "Y"
// → "*" (height 3).
func Dates() *Hierarchy {
	return &Hierarchy{build: hierarchy.DateSpec}
}

// DimensionRows returns a hierarchy defined by an explicit dimension table:
// each record lists a base value and its generalization at every level,
// most specific first — the row format of the paper's star-schema dimension
// tables (Fig. 6) and of common hierarchy interchange files. names, if
// non-nil, supplies the level names.
func DimensionRows(records [][]string, names []string) *Hierarchy {
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		spec, err := hierarchy.FromDimensionRows(attr, records, names)
		if err != nil {
			// Defer the error to Anonymize through an always-failing spec.
			return hierarchy.NewSpec(attr, hierarchy.Level{
				Name: attr + "!",
				FromBase: func(string) (string, error) {
					return "", err
				},
			})
		}
		return spec
	}}
}

// DimensionCSV returns a hierarchy read from a dimension-table CSV file
// whose header names the levels. Read errors surface from Anonymize.
func DimensionCSV(path string) *Hierarchy {
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		spec, err := hierarchy.LoadDimensionCSV(attr, path)
		if err != nil {
			return hierarchy.NewSpec(attr, hierarchy.Level{
				Name: attr + "!",
				FromBase: func(string) (string, error) {
					return "", err
				},
			})
		}
		return spec
	}}
}

// Level is one custom generalization step: a domain name and the function
// mapping each base value into that domain. See Custom.
type Level struct {
	Name string
	Map  func(base string) (string, error)
}

// Custom returns a hierarchy from caller-supplied level functions, each
// mapping base values directly to that level's domain. Anonymize verifies
// the chain forms a valid DGH (each induced step function is many-to-one).
func Custom(levels ...Level) *Hierarchy {
	if len(levels) == 0 {
		return &Hierarchy{err: fmt.Errorf("incognito: custom hierarchy needs at least one level")}
	}
	return &Hierarchy{build: func(attr string) *hierarchy.Spec {
		ls := make([]hierarchy.Level, len(levels))
		for i, l := range levels {
			ls[i] = hierarchy.Level{Name: l.Name, FromBase: l.Map}
		}
		return hierarchy.NewSpec(attr, ls...)
	}}
}
