package lattice

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// mustGenerate runs Generate under a live context.
func mustGenerate(t *testing.T, prev *Graph, survivors map[int]bool, ids *IDGen) *Graph {
	t.Helper()
	g, err := Generate(context.Background(), prev, survivors, ids)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sexZipGraph builds C2/E2 for the Sex (height 1) and Zipcode (height 2)
// attributes of the running example, i.e. the lattice of Fig. 3(a).
func sexZipGraph(t *testing.T) (*Graph, *Graph) {
	t.Helper()
	ids := NewIDGen()
	c1 := FirstIteration([]int{1, 2}, ids) // dim 0 = Sex (h=1), dim 1 = Zipcode (h=2)
	all := make(map[int]bool)
	for _, n := range c1.Nodes() {
		all[n.ID] = true
	}
	c2 := mustGenerate(t, c1, all, ids)
	return c1, c2
}

func TestFirstIterationShape(t *testing.T) {
	ids := NewIDGen()
	g := FirstIteration([]int{1, 2}, ids)
	if g.Len() != 5 { // S0,S1 + Z0,Z1,Z2
		t.Fatalf("C1 has %d nodes, want 5", g.Len())
	}
	if len(g.Edges()) != 3 { // S0→S1, Z0→Z1, Z1→Z2
		t.Fatalf("E1 has %d edges, want 3", len(g.Edges()))
	}
	roots := g.Roots()
	if len(roots) != 2 {
		t.Fatalf("C1 has %d roots, want 2 (S0 and Z0)", len(roots))
	}
	for _, r := range roots {
		if r.Levels[0] != 0 {
			t.Fatalf("root %v is not a level-0 node", r)
		}
	}
	// The chain for Zipcode: Z0 → Z1 → Z2.
	z0 := g.Lookup([]int{1}, []int{0})
	z1 := g.Lookup([]int{1}, []int{1})
	z2 := g.Lookup([]int{1}, []int{2})
	if z0 == nil || z1 == nil || z2 == nil {
		t.Fatal("missing Zipcode chain nodes")
	}
	if !reflect.DeepEqual(g.Up(z0.ID), []int{z1.ID}) || !reflect.DeepEqual(g.Up(z1.ID), []int{z2.ID}) {
		t.Fatal("Zipcode chain edges wrong")
	}
}

// TestFigure3Lattice verifies that joining the Sex and Zipcode hierarchies
// reproduces the 6-node, 7-edge generalization lattice of Fig. 3(a)/Fig. 6.
func TestFigure3Lattice(t *testing.T) {
	_, c2 := sexZipGraph(t)
	if c2.Len() != 6 {
		t.Fatalf("C2 has %d nodes, want 6", c2.Len())
	}
	if got := len(c2.Edges()); got != 7 {
		t.Fatalf("E2 has %d edges, want 7 (Fig. 6)", got)
	}
	at := func(s, z int) *Node {
		n := c2.Lookup([]int{0, 1}, []int{s, z})
		if n == nil {
			t.Fatalf("missing node <S%d, Z%d>", s, z)
		}
		return n
	}
	// Edge set of Fig. 6, expressed structurally.
	wantUp := map[*Node][]*Node{
		at(0, 0): {at(1, 0), at(0, 1)},
		at(0, 1): {at(1, 1), at(0, 2)},
		at(1, 0): {at(1, 1)},
		at(0, 2): {at(1, 2)},
		at(1, 1): {at(1, 2)},
		at(1, 2): {},
	}
	for n, ups := range wantUp {
		got := append([]int(nil), c2.Up(n.ID)...)
		want := make([]int, len(ups))
		for i, u := range ups {
			want[i] = u.ID
		}
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("Up(%v) = %v, want %v", n, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Up(%v) = %v, want %v", n, got, want)
			}
		}
	}
	// The single root is <S0, Z0> and heights match §2 ("the height of
	// <S1, Z1> is 2").
	roots := c2.Roots()
	if len(roots) != 1 || roots[0] != at(0, 0) {
		t.Fatalf("roots = %v, want just <S0,Z0>", roots)
	}
	if at(1, 1).Height() != 2 {
		t.Fatalf("height of <S1,Z1> = %d, want 2", at(1, 1).Height())
	}
}

// TestExample32GraphGeneration replays Example 3.2: feeding the surviving
// 2-attribute nodes from the final stages of Fig. 5 into graph generation
// must produce exactly the 5-node graph of Fig. 7(a).
func TestExample32GraphGeneration(t *testing.T) {
	// Dims: 0 = Birthdate (h=1), 1 = Sex (h=1), 2 = Zipcode (h=2).
	ids := NewIDGen()
	c1 := FirstIteration([]int{1, 1, 2}, ids)
	all := make(map[int]bool)
	for _, n := range c1.Nodes() {
		all[n.ID] = true
	}
	c2 := mustGenerate(t, c1, all, ids)

	// Fig. 5 final states: the 2-attribute generalizations w.r.t. which
	// Patients IS 2-anonymous.
	surviving := [][2][]int{
		{{1, 2}, {1, 0}}, // <S1, Z0>
		{{1, 2}, {1, 1}}, // <S1, Z1>
		{{1, 2}, {1, 2}}, // <S1, Z2>
		{{1, 2}, {0, 2}}, // <S0, Z2>
		{{0, 2}, {1, 0}}, // <B1, Z0>
		{{0, 2}, {1, 1}}, // <B1, Z1>
		{{0, 2}, {1, 2}}, // <B1, Z2>
		{{0, 2}, {0, 2}}, // <B0, Z2>
		{{0, 1}, {1, 0}}, // <B1, S0>
		{{0, 1}, {0, 1}}, // <B0, S1>
		{{0, 1}, {1, 1}}, // <B1, S1>
	}
	s2 := make(map[int]bool)
	for _, s := range surviving {
		n := c2.Lookup(s[0], s[1])
		if n == nil {
			t.Fatalf("surviving node %v@%v not found in C2", s[0], s[1])
		}
		s2[n.ID] = true
	}
	c3 := mustGenerate(t, c2, s2, ids)

	want := [][]int{
		{1, 1, 0}, // <B1, S1, Z0>
		{1, 1, 1}, // <B1, S1, Z1>
		{1, 0, 2}, // <B1, S0, Z2>
		{0, 1, 2}, // <B0, S1, Z2>
		{1, 1, 2}, // <B1, S1, Z2>
	}
	if c3.Len() != len(want) {
		t.Fatalf("C3 has %d nodes, want %d (Fig. 7(a))", c3.Len(), len(want))
	}
	node := func(levels []int) *Node {
		n := c3.Lookup([]int{0, 1, 2}, levels)
		if n == nil {
			t.Fatalf("C3 missing node %v", levels)
		}
		return n
	}
	for _, w := range want {
		node(w)
	}
	// Edges of Fig. 7(a).
	type edge struct{ from, to []int }
	wantEdges := []edge{
		{[]int{1, 1, 0}, []int{1, 1, 1}},
		{[]int{1, 1, 1}, []int{1, 1, 2}},
		{[]int{1, 0, 2}, []int{1, 1, 2}},
		{[]int{0, 1, 2}, []int{1, 1, 2}},
	}
	if got := len(c3.Edges()); got != len(wantEdges) {
		t.Fatalf("C3 has %d edges, want %d: %v", got, len(wantEdges), c3.Edges())
	}
	for _, e := range wantEdges {
		from, to := node(e.from), node(e.to)
		found := false
		for _, u := range c3.Up(from.ID) {
			if u == to.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing edge %v → %v", e.from, e.to)
		}
	}
	// Roots of Fig. 7(a): <B1,S1,Z0>, <B1,S0,Z2>, <B0,S1,Z2> — one family.
	roots := c3.Roots()
	if len(roots) != 3 {
		t.Fatalf("C3 has %d roots, want 3", len(roots))
	}
	if fams := c3.Families(); len(fams) != 1 || len(fams[0]) != 5 {
		t.Fatalf("C3 families wrong: %d families", len(fams))
	}
	// §3.3.1: the super-root of that family is <B0, S0, Z0>.
	dims, levels := Meet(roots)
	if !reflect.DeepEqual(dims, []int{0, 1, 2}) || !reflect.DeepEqual(levels, []int{0, 0, 0}) {
		t.Fatalf("Meet(roots) = %v@%v, want all-zero", dims, levels)
	}
}

// TestGenerateMatchesDirectConstruction cross-checks the SQL-transcribed
// join/prune/edge generation against a first-principles construction: with
// survivors closed upward, C_{i+1} must contain exactly the level vectors
// whose every i-subset survived, and E_{i+1} must be exactly the one-level
// bumps within C_{i+1}.
func TestGenerateMatchesDirectConstruction(t *testing.T) {
	heights := []int{2, 1, 2, 1}
	ids := NewIDGen()
	c1 := FirstIteration(heights, ids)
	all := func(g *Graph) map[int]bool {
		m := make(map[int]bool)
		for _, n := range g.Nodes() {
			m[n.ID] = true
		}
		return m
	}

	// Survival rule chosen to be upward-closed per family (as the
	// generalization property guarantees in a real run): a node survives if
	// its height is at least its size-dependent threshold.
	survive := func(n *Node) bool { return n.Height() >= n.Size()-1 }

	prev := c1
	surv := make(map[int]bool)
	// wantSurv holds the keys of surviving nodes of the previous size,
	// computed from first principles; the a priori condition is transitive,
	// so candidates must be checked against *surviving candidates*, not
	// against the raw survival rule.
	wantSurv := make(map[string]bool)
	for _, n := range c1.Nodes() {
		if survive(n) {
			surv[n.ID] = true
			wantSurv[n.Key()] = true
		}
	}
	for size := 2; size <= len(heights); size++ {
		next := mustGenerate(t, prev, surv, ids)

		// Direct candidate construction: every level vector over every
		// attribute subset of this size whose immediate subsets all survived.
		var wantKeys []string
		nextWantSurv := make(map[string]bool)
		var enumerate func(dims []int, start int)
		enumerate = func(dims []int, start int) {
			if len(dims) == size {
				levels := make([]int, size)
				var walk func(i int)
				walk = func(i int) {
					if i == size {
						ok := true
						for drop := 0; drop < size && ok; drop++ {
							var d, l []int
							for j := 0; j < size; j++ {
								if j != drop {
									d = append(d, dims[j])
									l = append(l, levels[j])
								}
							}
							if !wantSurv[EncodeKey(d, l)] {
								ok = false
							}
						}
						if ok {
							key := EncodeKey(dims, levels)
							wantKeys = append(wantKeys, key)
							if survive(&Node{Dims: dims, Levels: levels}) {
								nextWantSurv[key] = true
							}
						}
						return
					}
					for l := 0; l <= heights[dims[i]]; l++ {
						levels[i] = l
						walk(i + 1)
					}
				}
				walk(0)
				return
			}
			for d := start; d < len(heights); d++ {
				enumerate(append(dims, d), d+1)
			}
		}
		enumerate(nil, 0)
		wantSurv = nextWantSurv

		var gotKeys []string
		for _, n := range next.Nodes() {
			gotKeys = append(gotKeys, n.Key())
		}
		sort.Strings(wantKeys)
		sort.Strings(gotKeys)
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Fatalf("size %d: candidate sets differ: got %d nodes, want %d", size, len(gotKeys), len(wantKeys))
		}

		// Direct edges: one-level bumps within the candidate set.
		wantEdges := 0
		for _, n := range next.Nodes() {
			for j := range n.Levels {
				bumped := append([]int(nil), n.Levels...)
				bumped[j]++
				if bumped[j] <= heights[n.Dims[j]] && next.Lookup(n.Dims, bumped) != nil {
					wantEdges++
					to := next.Lookup(n.Dims, bumped)
					found := false
					for _, u := range next.Up(n.ID) {
						if u == to.ID {
							found = true
						}
					}
					if !found {
						t.Fatalf("size %d: missing direct edge %v → %v", size, n, to)
					}
				}
			}
		}
		if got := len(next.Edges()); got != wantEdges {
			t.Fatalf("size %d: edge count %d, want %d", size, got, wantEdges)
		}

		prev = next
		surv = make(map[int]bool)
		for _, n := range next.Nodes() {
			if survive(n) {
				surv[n.ID] = true
			}
		}
		_ = all
	}
}

func TestNodeBasics(t *testing.T) {
	a := &Node{ID: 1, Dims: []int{0, 2}, Levels: []int{1, 2}}
	b := &Node{ID: 2, Dims: []int{0, 2}, Levels: []int{0, 2}}
	c := &Node{ID: 3, Dims: []int{0, 1}, Levels: []int{1, 2}}
	if a.Height() != 3 || a.Size() != 2 {
		t.Fatalf("Height/Size wrong: %d/%d", a.Height(), a.Size())
	}
	if !a.GeneralizationOf(b) || b.GeneralizationOf(a) {
		t.Fatal("GeneralizationOf wrong on comparable nodes")
	}
	if a.GeneralizationOf(c) || c.GeneralizationOf(a) {
		t.Fatal("nodes over different attribute sets must be incomparable")
	}
	if !a.GeneralizationOf(a) {
		t.Fatal("GeneralizationOf must be reflexive")
	}
	dv, err := a.DistanceVector(b)
	if err != nil || !reflect.DeepEqual(dv, []int{1, 0}) {
		t.Fatalf("DistanceVector = %v, %v", dv, err)
	}
	if _, err := b.DistanceVector(a); err == nil {
		t.Fatal("DistanceVector must fail when not a generalization")
	}
	if a.Key() == b.Key() || a.Key() == c.Key() {
		t.Fatal("distinct nodes share a key")
	}
	if a.DimsKey() != b.DimsKey() {
		t.Fatal("same-family nodes must share a DimsKey")
	}
	if a.DimsKey() == c.DimsKey() {
		t.Fatal("different families share a DimsKey")
	}
}

func TestSortNodes(t *testing.T) {
	n1 := &Node{ID: 3, Dims: []int{0}, Levels: []int{2}}
	n2 := &Node{ID: 1, Dims: []int{0}, Levels: []int{0}}
	n3 := &Node{ID: 2, Dims: []int{0}, Levels: []int{2}}
	nodes := []*Node{n1, n2, n3}
	SortNodes(nodes)
	if nodes[0] != n2 || nodes[1] != n3 || nodes[2] != n1 {
		t.Fatalf("SortNodes order wrong: %v", nodes)
	}
}

func TestFullLatticeBasics(t *testing.T) {
	f := NewFull([]int{1, 2}) // the Fig. 3 lattice
	if f.Size() != 6 {
		t.Fatalf("Size = %d, want 6", f.Size())
	}
	if f.MaxHeight() != 3 {
		t.Fatalf("MaxHeight = %d, want 3", f.MaxHeight())
	}
	if f.Bottom() != 0 || f.Top() != 5 {
		t.Fatalf("Bottom/Top = %d/%d", f.Bottom(), f.Top())
	}
	// ID/Levels round trip for every node.
	for id := 0; id < f.Size(); id++ {
		if got := f.ID(f.Levels(id)); got != id {
			t.Fatalf("round trip failed for %d: %d", id, got)
		}
	}
	// Heights: strata sizes must total the lattice size and match Fig 3(b):
	// heights 0,1,2,3 have 1,2,2,1 nodes.
	wantStrata := []int{1, 2, 2, 1}
	total := 0
	for h := 0; h <= f.MaxHeight(); h++ {
		ids := f.AtHeight(h)
		if len(ids) != wantStrata[h] {
			t.Fatalf("|AtHeight(%d)| = %d, want %d", h, len(ids), wantStrata[h])
		}
		for _, id := range ids {
			if f.Height(id) != h {
				t.Fatalf("node %d reported at height %d but has height %d", id, h, f.Height(id))
			}
		}
		total += len(ids)
	}
	if total != f.Size() {
		t.Fatalf("strata cover %d nodes, want %d", total, f.Size())
	}
}

func TestFullLatticeUpDown(t *testing.T) {
	f := NewFull([]int{2, 1, 3})
	for id := 0; id < f.Size(); id++ {
		for _, up := range f.Up(id) {
			if f.Height(up) != f.Height(id)+1 {
				t.Fatalf("Up(%d) contains %d at wrong height", id, up)
			}
			if !f.GeneralizationOf(up, id) {
				t.Fatalf("Up(%d) contains non-generalization %d", id, up)
			}
			// Down must be the exact inverse.
			found := false
			for _, d := range f.Down(up) {
				if d == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("Down(%d) missing %d", up, id)
			}
		}
	}
	if len(f.Up(f.Top())) != 0 {
		t.Fatal("Top has generalizations")
	}
	if len(f.Down(f.Bottom())) != 0 {
		t.Fatal("Bottom has specializations")
	}
}

func TestFullLatticeGeneralizationOf(t *testing.T) {
	f := NewFull([]int{2, 2})
	a := f.ID([]int{1, 1})
	b := f.ID([]int{0, 2})
	if f.GeneralizationOf(a, b) || f.GeneralizationOf(b, a) {
		t.Fatal("incomparable nodes reported comparable")
	}
	if !f.GeneralizationOf(f.Top(), a) || !f.GeneralizationOf(a, f.Bottom()) {
		t.Fatal("top/bottom comparabilities wrong")
	}
}

func TestFullLatticePanicsOnBadLevels(t *testing.T) {
	f := NewFull([]int{1})
	defer func() {
		if recover() == nil {
			t.Fatal("ID with out-of-range level did not panic")
		}
	}()
	f.ID([]int{5})
}

func TestMeetEmpty(t *testing.T) {
	d, l := Meet(nil)
	if d != nil || l != nil {
		t.Fatal("Meet(nil) should return nils")
	}
}

func TestGenerateOnEmptySurvivors(t *testing.T) {
	ids := NewIDGen()
	c1 := FirstIteration([]int{1, 1}, ids)
	g := mustGenerate(t, c1, map[int]bool{}, ids)
	if g.Len() != 0 || len(g.Edges()) != 0 {
		t.Fatal("Generate from no survivors must be empty")
	}
}

// countdownCtx is a context whose Err turns to context.Canceled after it
// has reported nil live times.
type countdownCtx struct {
	context.Context
	live int
}

func (c *countdownCtx) Err() error {
	if c.live == 0 {
		return context.Canceled
	}
	c.live--
	return nil
}

// TestGenerateStopsOnCancelledContext: candidate generation checks its
// context, both before any work and periodically inside the join, and
// hands out fewer node IDs than a full generation would.
func TestGenerateStopsOnCancelledContext(t *testing.T) {
	heights := make([]int, 12)
	for i := range heights {
		heights[i] = 1
	}
	// The survivors are all of C3 over 12 height-1 attributes, so C4 has
	// 495 × 16 = 7,920 candidates.
	c3 := func() (*Graph, map[int]bool, *IDGen) {
		ids := NewIDGen()
		g := FirstIteration(heights, ids)
		for i := 0; i < 2; i++ {
			all := make(map[int]bool)
			for _, n := range g.Nodes() {
				all[n.ID] = true
			}
			g = mustGenerate(t, g, all, ids)
		}
		all := make(map[int]bool)
		for _, n := range g.Nodes() {
			all[n.ID] = true
		}
		return g, all, ids
	}
	g, surv, ids := c3()
	before := ids.next
	full := mustGenerate(t, g, surv, ids)
	if full.Len() != 7920 || ids.next-before != 7920 {
		t.Fatalf("setup: C4 has %d candidates from %d IDs, want 7920", full.Len(), ids.next-before)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"already cancelled":         cancelled,
		"cancelled during the join": &countdownCtx{Context: context.Background(), live: 1},
	} {
		g, surv, ids := c3()
		before := ids.next
		got, err := Generate(ctx, g, surv, ids)
		if !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s: Generate = %v, %v; want nil, context.Canceled", name, got, err)
		}
		if handed := ids.next - before; handed >= full.Len() {
			t.Errorf("%s: Generate handed out %d IDs, want fewer than the %d of a full generation", name, handed, full.Len())
		}
	}
}
