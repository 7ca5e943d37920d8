package hierarchy

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// SuppressionValue is the conventional value of a fully suppressed domain.
const SuppressionValue = "*"

// Suppression returns a level that maps every value to "*" — the paper's
// one-step suppression hierarchies (Gender, Race, etc. in Fig. 9).
func Suppression(name string) Level {
	return Level{Name: name, FromBase: func(string) (string, error) { return SuppressionValue, nil }}
}

// SuppressionSpec is the common height-1 hierarchy: base → "*".
func SuppressionSpec(attr string) *Spec {
	return NewSpec(attr, Suppression(attr+"1"))
}

// errNoMapping reports a base value missing from an explicit table.
var errNoMapping = errors.New("no mapping for value")

// Mapped returns a level defined by an explicit base-value → generalized
// value table. Missing entries are an error at Bind time, which is how
// non-total taxonomies are rejected.
func Mapped(name string, m map[string]string) Level {
	return Level{Name: name, FromBase: func(v string) (string, error) {
		g, ok := m[v]
		if !ok {
			return "", errNoMapping
		}
		return g, nil
	}}
}

// Taxonomy builds a spec from successive parent maps: parents[0] maps base
// values to their level-1 ancestor, parents[1] maps level-1 values to their
// level-2 ancestor, and so on. Level names are attr+"1", attr+"2", ….
// This matches the paper's "taxonomy tree" generalizations (Fig. 9): the
// composed maps are validated for totality and well-definedness at Bind.
func Taxonomy(attr string, parents ...map[string]string) *Spec {
	levels := make([]Level, len(parents))
	for i := range parents {
		chain := parents[:i+1]
		levels[i] = Level{
			Name: fmt.Sprintf("%s%d", attr, i+1),
			FromBase: func(v string) (string, error) {
				for d, p := range chain {
					g, ok := p[v]
					if !ok {
						return "", fmt.Errorf("taxonomy level %d has no parent for %q", d+1, v)
					}
					v = g
				}
				return v, nil
			},
		}
	}
	return NewSpec(attr, levels...)
}

// Interval returns a level that buckets integer-valued strings into
// half-open ranges of the given width anchored at origin, rendered as
// "[lo-hi)". This is the paper's "5-, 10-, 20-year ranges" style of
// generalization for the Adults Age attribute.
func Interval(name string, width, origin int) Level {
	if width <= 0 {
		panic("hierarchy: interval width must be positive")
	}
	return Level{Name: name, FromBase: func(v string) (string, error) {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil {
			return "", fmt.Errorf("not an integer: %w", err)
		}
		lo := n - mod(n-origin, width)
		return fmt.Sprintf("[%d-%d)", lo, lo+width), nil
	}}
}

// mod is a non-negative modulus.
func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// IntervalSpec builds a hierarchy of successively wider integer ranges with
// a final suppression level, e.g. widths 5,10,20 gives
// base → [5-ranges] → [10-ranges] → [20-ranges] → *.
// Every width must divide the next so the chain is a valid DGH.
func IntervalSpec(attr string, origin int, widths ...int) *Spec {
	levels := make([]Level, 0, len(widths)+1)
	for i, w := range widths {
		if i > 0 && w%widths[i-1] != 0 {
			panic(fmt.Sprintf("hierarchy: interval width %d does not divide %d; chain would not be a DGH", widths[i-1], w))
		}
		levels = append(levels, Interval(fmt.Sprintf("%s%d", attr, i+1), w, origin))
	}
	levels = append(levels, Suppression(fmt.Sprintf("%s%d", attr, len(widths)+1)))
	return NewSpec(attr, levels...)
}

// RoundDigits returns a level that replaces the trailing n characters of the
// value with '*' — the paper's "round each digit" generalization used for
// Zipcode, Price, and Cost in Fig. 9 (Fig. 2(b): 53715 → 5371* → 537**).
// Values shorter than n characters generalize to all stars of their own
// length, so ragged inputs still form a valid chain.
func RoundDigits(name string, n int) Level {
	return Level{Name: name, FromBase: func(v string) (string, error) {
		if n >= len(v) {
			return strings.Repeat("*", len(v)), nil
		}
		return v[:len(v)-n] + strings.Repeat("*", n), nil
	}}
}

// RoundDigitsSpec builds the full digit-rounding chain of the given height:
// each level stars out one more trailing character. For 5-digit zipcodes,
// height 5 yields 5371* → 537** → 53*** → 5**** → *****.
func RoundDigitsSpec(attr string, height int) *Spec {
	levels := make([]Level, height)
	for i := 0; i < height; i++ {
		levels[i] = RoundDigits(fmt.Sprintf("%s%d", attr, i+1), i+1)
	}
	return NewSpec(attr, levels...)
}

// DateSpec builds the order-date style hierarchy of Fig. 9: a base date
// "M/D/Y" generalizes to month "M/Y", then year "Y", then "*". Dates are
// parsed purely syntactically (split on '/'), matching the paper's use of
// dates as categorical strings.
func DateSpec(attr string) *Spec {
	month := Level{Name: attr + "1", FromBase: func(v string) (string, error) {
		parts := strings.Split(v, "/")
		if len(parts) != 3 {
			return "", fmt.Errorf("date %q is not M/D/Y", v)
		}
		return parts[0] + "/" + parts[2], nil
	}}
	year := Level{Name: attr + "2", FromBase: func(v string) (string, error) {
		parts := strings.Split(v, "/")
		if len(parts) != 3 {
			return "", fmt.Errorf("date %q is not M/D/Y", v)
		}
		return parts[2], nil
	}}
	return NewSpec(attr, month, year, Suppression(attr+"3"))
}
