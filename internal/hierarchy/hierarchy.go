// Package hierarchy implements domain generalization hierarchies (DGHs) and
// their induced value generalization functions, as defined in §2 of the
// paper. A hierarchy for an attribute is a totally ordered chain of domains
// D0 <D D1 <D ... <D Dh, where D0 is the attribute's base domain and each
// step carries a many-to-one value generalization function γ: Di → Di+1.
//
// A Spec describes the chain intensionally (each level as a function of the
// base value); Bind attaches a spec to a concrete attribute dictionary and
// materializes the γ functions as dense code lookup tables — the in-memory
// equivalent of the paper's star-schema dimension tables (Fig. 4), which can
// also be rendered as an explicit relation (Fig. 6) via DimensionTable.
package hierarchy

import (
	"fmt"

	"incognito/internal/relation"
)

// Level describes one generalization step of a hierarchy: the name of the
// resulting domain (e.g. "Z1") and the function mapping each *base* value to
// its value in that domain. Defining levels as functions of the base value
// keeps specs composable; Bind verifies that the induced step functions
// γ: Di → Di+1 are well defined (many-to-one).
type Level struct {
	Name     string
	FromBase func(base string) (string, error)
}

// Spec is an unbound hierarchy description for a named attribute. The base
// domain is implicit (whatever values the bound dictionary holds) and Levels
// lists the generalized domains from most to least specific.
type Spec struct {
	Attr   string
	Levels []Level

	// dim, set on specs read from a dimension table, is that table
	// dictionary-encoded: column 0 holds the distinct base values (so a
	// base value's code is its row) and column l its level-l values. Bind
	// joins a dictionary with it by codes instead of calling FromBase.
	dim *relation.Table
}

// NewSpec builds a Spec from generalization levels.
func NewSpec(attr string, levels ...Level) *Spec {
	return &Spec{Attr: attr, Levels: levels}
}

// Hierarchy is a Spec bound to an attribute dictionary: every γ is
// materialized as a dense lookup table over dictionary codes.
type Hierarchy struct {
	attr  string
	names []string         // names[0] is the base domain name, e.g. "Z0"
	dicts []*relation.Dict // dicts[l] enumerates the values of domain l
	mapTo [][]int32        // mapTo[l][baseCode] = code in domain l; mapTo[0] = nil (identity)
	step  [][]int32        // step[l][codeAt l] = code at l+1, for l in [0, Height())
}

// Bind materializes the spec against dict, which must enumerate the base
// domain (typically a table column's dictionary). It validates that every
// level function is total over the base values and that each induced step
// function is well defined: two base values that share a domain-l value must
// also share a domain-(l+1) value, otherwise the chain is not a DGH. A spec
// read from a dimension table binds by codes, with the same result as
// evaluating its FromBase functions value by value.
func (s *Spec) Bind(dict *relation.Dict) (*Hierarchy, error) {
	if s.Attr == "" {
		return nil, fmt.Errorf("hierarchy: spec has empty attribute name")
	}
	h := &Hierarchy{
		attr:  s.Attr,
		names: make([]string, len(s.Levels)+1),
		dicts: make([]*relation.Dict, len(s.Levels)+1),
		mapTo: make([][]int32, len(s.Levels)+1),
		step:  make([][]int32, len(s.Levels)),
	}
	h.names[0] = s.Attr + "0"
	h.dicts[0] = dict
	base := dict.Values()
	var rows []int32 // each base value's row in s.dim, looked up once for all levels
	for l, lev := range s.Levels {
		if lev.Name == "" {
			return nil, fmt.Errorf("hierarchy %s: level %d has empty name", s.Attr, l+1)
		}
		if lev.FromBase == nil {
			return nil, fmt.Errorf("hierarchy %s: level %q has nil mapping", s.Attr, lev.Name)
		}
		h.names[l+1] = lev.Name
		if s.dim != nil {
			if rows == nil {
				rows = make([]int32, len(base))
				for b, v := range base {
					r, ok := s.dim.Dict(0).Code(v)
					if !ok {
						return nil, fmt.Errorf("hierarchy %s: level %q: value %q: %w", s.Attr, lev.Name, v, errNoMapping)
					}
					rows[b] = r
				}
			}
			h.dicts[l+1], h.mapTo[l+1] = joinLevel(s.dim, l+1, rows)
			continue
		}
		d := relation.NewDict()
		m := make([]int32, len(base))
		for b, v := range base {
			g, err := lev.FromBase(v)
			if err != nil {
				return nil, fmt.Errorf("hierarchy %s: level %q: value %q: %w", s.Attr, lev.Name, v, err)
			}
			m[b] = d.Encode(g)
		}
		h.dicts[l+1] = d
		h.mapTo[l+1] = m
	}
	// Derive and validate the step functions γ: Dl → Dl+1.
	for l := 0; l < len(s.Levels); l++ {
		cur, next := h.mapTo[l], h.mapTo[l+1]
		st := make([]int32, h.dicts[l].Len())
		seen := make([]bool, len(st))
		for b := range base {
			var c int32
			if cur == nil {
				c = int32(b)
			} else {
				c = cur[b]
			}
			if seen[c] && st[c] != next[b] {
				return nil, fmt.Errorf(
					"hierarchy %s: γ from %q to %q is not well defined: value %q maps to both %q and %q",
					s.Attr, h.names[l], h.names[l+1], h.dicts[l].Value(c),
					h.dicts[l+1].Value(st[c]), h.dicts[l+1].Value(next[b]))
			}
			st[c] = next[b]
			seen[c] = true
		}
		h.step[l] = st
	}
	return h, nil
}

// joinLevel joins base values to column col of a dimension table by
// codes, rows[b] being base value b's row. Level values enter the new
// dictionary in order of first appearance over the base codes, the order
// evaluating FromBase value by value gives, and each is decoded once.
func joinLevel(dim *relation.Table, col int, rows []int32) (*relation.Dict, []int32) {
	src, codes := dim.Dict(col), dim.Codes(col)
	remap := make([]int32, src.Len())
	for c := range remap {
		remap[c] = -1
	}
	d := relation.NewDict()
	m := make([]int32, len(rows))
	for b, r := range rows {
		c := codes[r]
		if remap[c] < 0 {
			remap[c] = d.Encode(src.Value(c))
		}
		m[b] = remap[c]
	}
	return d, m
}

// Attr returns the attribute name the hierarchy generalizes.
func (h *Hierarchy) Attr() string { return h.attr }

// Height returns the number of generalization steps (the paper's
// parenthesized heights in Fig. 9). A hierarchy of height h has h+1 domains,
// numbered 0 (base) through h (most general).
func (h *Hierarchy) Height() int { return len(h.names) - 1 }

// NumLevels returns Height()+1, the number of domains in the chain.
func (h *Hierarchy) NumLevels() int { return len(h.names) }

// LevelName returns the name of domain l.
func (h *Hierarchy) LevelName(l int) string { return h.names[l] }

// LevelSize returns the number of distinct values in domain l.
func (h *Hierarchy) LevelSize(l int) int { return h.dicts[l].Len() }

// Dict returns the value dictionary of domain l.
func (h *Hierarchy) Dict(l int) *relation.Dict { return h.dicts[l] }

// MapTo returns the recode table from base codes to domain-l codes; nil
// means identity (l == 0). The table is shared and must not be modified.
func (h *Hierarchy) MapTo(l int) []int32 { return h.mapTo[l] }

// Step returns the γ table from domain-l codes to domain-(l+1) codes.
func (h *Hierarchy) Step(l int) []int32 { return h.step[l] }

// Value decodes code c of domain l.
func (h *Hierarchy) Value(l int, c int32) string { return h.dicts[l].Value(c) }

// GeneralizeValue maps a base value to its domain-l value (γ⁺ applied l
// times, per the paper's notation).
func (h *Hierarchy) GeneralizeValue(l int, base string) (string, error) {
	c, ok := h.dicts[0].Code(base)
	if !ok {
		return "", fmt.Errorf("hierarchy %s: value %q not in base domain", h.attr, base)
	}
	if l == 0 {
		return base, nil
	}
	return h.dicts[l].Value(h.mapTo[l][c]), nil
}

// DimensionTable renders the hierarchy as the star-schema dimension relation
// of Fig. 4/Fig. 6: one row per base value, one column per domain in the
// chain, so that joining a table with this relation and projecting column l
// performs full-domain generalization to level l.
func (h *Hierarchy) DimensionTable() *relation.Table {
	t := relation.MustNewTable(h.names...)
	rec := make([]string, len(h.names))
	for b := 0; b < h.dicts[0].Len(); b++ {
		rec[0] = h.dicts[0].Value(int32(b))
		for l := 1; l < len(h.names); l++ {
			rec[l] = h.dicts[l].Value(h.mapTo[l][int32(b)])
		}
		_ = t.AppendRow(rec)
	}
	return t
}
