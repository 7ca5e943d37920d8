package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

// collectSorted snapshots an EachSorted traversal: the visiting order and
// the counts, for representation-equivalence comparisons.
func collectSorted(f *FreqSet) ([][]int32, []int64) {
	var order [][]int32
	var counts []int64
	f.EachSorted(func(codes []int32, count int64) {
		order = append(order, append([]int32(nil), codes...))
		counts = append(counts, count)
	})
	return order, counts
}

// requireSameFreqSet fails unless the two sets are observably identical:
// same groups, same counts, same Len/Total/MinCount, same EachSorted order.
func requireSameFreqSet(t *testing.T, got, want *FreqSet) {
	t.Helper()
	if !reflect.DeepEqual(freqAsMap(got), freqAsMap(want)) {
		t.Fatalf("groups diverged\ngot  %v\nwant %v", freqAsMap(got), freqAsMap(want))
	}
	if got.Len() != want.Len() || got.Total() != want.Total() || got.MinCount() != want.MinCount() {
		t.Fatalf("aggregates diverged: Len %d/%d Total %d/%d MinCount %d/%d",
			got.Len(), want.Len(), got.Total(), want.Total(), got.MinCount(), want.MinCount())
	}
	gotOrder, gotCounts := collectSorted(got)
	wantOrder, wantCounts := collectSorted(want)
	if !reflect.DeepEqual(gotOrder, wantOrder) || !reflect.DeepEqual(gotCounts, wantCounts) {
		t.Fatalf("EachSorted diverged\ngot  %v %v\nwant %v %v", gotOrder, gotCounts, wantOrder, wantCounts)
	}
}

func TestAdaptiveRepresentationChoice(t *testing.T) {
	cases := []struct {
		name  string
		cols  []int
		card  []int
		dense bool
	}{
		{"small product", []int{0, 1}, []int{10, 20}, true},
		{"exactly threshold", []int{0}, []int{DenseMaxCells}, true},
		{"above threshold", []int{0, 1}, []int{DenseMaxCells, 2}, false},
		{"nil card", []int{0, 1}, nil, false},
		{"mismatched card", []int{0, 1}, []int{4}, false},
		{"zero cardinality", []int{0, 1}, []int{4, 0}, false},
		{"negative cardinality", []int{0, 1}, []int{4, -1}, false},
		{"no columns", []int{}, []int{}, false},
	}
	for _, c := range cases {
		f := NewFreqSetWithCard(c.cols, c.card)
		if f.Dense() != c.dense {
			t.Errorf("%s: Dense() = %v, want %v", c.name, f.Dense(), c.dense)
		}
	}
	// Valid cardinalities stay available as metadata even when the product
	// is too large for the dense array, so a rollup can still go dense.
	f := NewFreqSetWithCard([]int{0, 1}, []int{DenseMaxCells, 2})
	if got := f.Card(); !reflect.DeepEqual(got, []int{DenseMaxCells, 2}) {
		t.Fatalf("sparse-with-card lost metadata: Card() = %v", got)
	}
}

// TestDenseSparseSameOps drives the same operation sequence through both
// representations and requires identical observable behavior throughout.
func TestDenseSparseSameOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		card := []int{1 + rng.Intn(6), 1 + rng.Intn(5), 1 + rng.Intn(4)}
		dense := NewFreqSetWithCard([]int{0, 1, 2}, card)
		sparse := NewFreqSet([]int{0, 1, 2})
		if !dense.Dense() {
			t.Fatal("expected the dense representation")
		}
		for i := 0; i < 80; i++ {
			codes := []int32{int32(rng.Intn(card[0])), int32(rng.Intn(card[1])), int32(rng.Intn(card[2]))}
			n := int64(rng.Intn(4))
			dense.Add(codes, n)
			sparse.Add(codes, n)
			if dense.Count(codes) != sparse.Count(codes) {
				t.Fatalf("Count diverged on %v", codes)
			}
		}
		requireSameFreqSet(t, dense, sparse)
		for k := int64(1); k <= 6; k++ {
			if dense.TuplesBelow(k) != sparse.TuplesBelow(k) {
				t.Fatalf("TuplesBelow(%d) diverged", k)
			}
			for _, budget := range []int64{0, 1, 3, 100} {
				if dense.IsKAnonymous(k, budget) != sparse.IsKAnonymous(k, budget) {
					t.Fatalf("IsKAnonymous(%d, %d) diverged", k, budget)
				}
			}
		}
		requireSameFreqSet(t, dense.Clone(), sparse)
	}
}

// TestEachSortedNumericOrder pins the order contract with codes above 255,
// where sorting the packed little-endian keys as strings would diverge from
// numeric code order (and hence from the dense array layout).
func TestEachSortedNumericOrder(t *testing.T) {
	dense := NewFreqSetWithCard([]int{0, 1}, []int{400, 400})
	sparse := NewFreqSet([]int{0, 1})
	for _, codes := range [][]int32{{299, 0}, {0, 299}, {1, 2}, {256, 256}, {255, 1}, {300, 300}} {
		dense.Add(codes, 1)
		sparse.Add(codes, 1)
	}
	want := [][]int32{{0, 299}, {1, 2}, {255, 1}, {256, 256}, {299, 0}, {300, 300}}
	for name, f := range map[string]*FreqSet{"dense": dense, "sparse": sparse} {
		order, _ := collectSorted(f)
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("%s EachSorted order = %v, want %v", name, order, want)
		}
	}
}

// TestDenseSpillsOnOutOfRangeCodes checks transparent conversion: a dense
// set handed codes outside its declared cardinalities keeps every group and
// continues as a sparse set.
func TestDenseSpillsOnOutOfRangeCodes(t *testing.T) {
	f := NewFreqSetWithCard([]int{0}, []int{4})
	f.Add([]int32{1}, 3)
	f.Add([]int32{3}, 2)
	if !f.Dense() {
		t.Fatal("expected dense before the out-of-range add")
	}
	for _, c := range []int32{7, -1, 1 << 24} {
		f.Add([]int32{c}, 1)
	}
	if f.Dense() {
		t.Fatal("expected spill to sparse after out-of-range adds")
	}
	want := map[int32]int64{1: 3, 3: 2, 7: 1, -1: 1, 1 << 24: 1}
	got := make(map[int32]int64)
	f.Each(func(codes []int32, count int64) { got[codes[0]] = count })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups after spill = %v, want %v", got, want)
	}
	if f.Count([]int32{9}) != 0 {
		t.Fatal("absent group should count 0 after spill")
	}
}

// TestZeroCountGroupsDoNotExist pins the shared semantics both
// representations must agree on: a group never rests at count zero.
func TestZeroCountGroupsDoNotExist(t *testing.T) {
	for name, f := range map[string]*FreqSet{
		"sparse": NewFreqSet([]int{0}),
		"dense":  NewFreqSetWithCard([]int{0}, []int{8}),
	} {
		f.Add([]int32{2}, 0)
		if f.Len() != 0 {
			t.Fatalf("%s: zero add created a group", name)
		}
		f.Add([]int32{2}, 5)
		f.Add([]int32{2}, -5)
		if f.Len() != 0 {
			t.Fatalf("%s: group decremented to zero still exists", name)
		}
		f.Each(func(codes []int32, count int64) {
			t.Fatalf("%s: Each visited a zero-count group %v", name, codes)
		})
	}
}

// TestAddFromAcrossRepresentations exercises every merge combination:
// dense+=dense (vector add), dense+=sparse, sparse+=dense, and dense sets
// with different layouts.
func TestAddFromAcrossRepresentations(t *testing.T) {
	build := func(card []int) *FreqSet {
		var f *FreqSet
		if card == nil {
			f = NewFreqSet([]int{0, 1})
		} else {
			f = NewFreqSetWithCard([]int{0, 1}, card)
		}
		f.Add([]int32{0, 1}, 2)
		f.Add([]int32{2, 0}, 3)
		return f
	}
	want := NewFreqSet([]int{0, 1})
	want.Add([]int32{0, 1}, 4)
	want.Add([]int32{2, 0}, 6)
	cases := []struct{ dst, src []int }{
		{[]int{3, 2}, []int{3, 2}}, // same dense layout: vector add
		{[]int{3, 2}, []int{4, 4}}, // different dense layouts
		{[]int{3, 2}, nil},         // dense += sparse
		{nil, []int{3, 2}},         // sparse += dense
		{nil, nil},                 // sparse += sparse
	}
	for _, c := range cases {
		dst, src := build(c.dst), build(c.src)
		dst.AddFrom(src)
		requireSameFreqSet(t, dst, want)
		// The source must be untouched.
		if src.Total() != 5 {
			t.Fatalf("AddFrom mutated its source: Total=%d", src.Total())
		}
	}
}

// TestRecodeAndDropColumnAcrossRepresentations checks the rollup paths:
// dense→dense remap, sparse→dense, dense→sparse, and sparse→sparse all
// produce identical frequency sets.
func TestRecodeAndDropColumnAcrossRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		card := []int{2 + rng.Intn(6), 2 + rng.Intn(5)}
		dense := NewFreqSetWithCard([]int{0, 1}, card)
		sparse := NewFreqSet([]int{0, 1})
		for i := 0; i < 50; i++ {
			codes := []int32{int32(rng.Intn(card[0])), int32(rng.Intn(card[1]))}
			n := int64(1 + rng.Intn(3))
			dense.Add(codes, n)
			sparse.Add(codes, n)
		}
		gamma := make([]int32, card[0])
		for i := range gamma {
			gamma[i] = int32(rng.Intn(3))
		}
		maps := [][]int32{gamma, nil}
		target := []int{3, card[1]}
		denseOut := dense.RecodeWithCard(maps, target)
		sparseOut := sparse.RecodeWithCard(maps, nil)
		if !denseOut.Dense() {
			t.Fatal("dense RecodeWithCard should stay dense for a small target layout")
		}
		if sparseOut.Dense() {
			t.Fatal("RecodeWithCard with a nil card should stay sparse")
		}
		requireSameFreqSet(t, denseOut, sparseOut)
		// Explicit card on the sparse input promotes the result to dense.
		promoted := sparse.RecodeWithCard(maps, target)
		if !promoted.Dense() {
			t.Fatal("RecodeWithCard with a small layout should produce a dense set")
		}
		requireSameFreqSet(t, promoted, denseOut)

		for pos := 0; pos < 2; pos++ {
			requireSameFreqSet(t, dense.DropColumn(pos), sparse.DropColumn(pos))
		}
	}
}

// TestGroupCountDenseMatchesSparse checks the fused dense scan against the
// sparse scan, sequentially and sharded, with and without recoding.
func TestGroupCountDenseMatchesSparse(t *testing.T) {
	tab := randomTable(t, 3*minShardRows+17, 29)
	cols := []int{0, 1, 2}
	gamma := make([]int32, tab.Dict(0).Len())
	for i := range gamma {
		gamma[i] = int32(i % 3)
	}
	for _, recode := range [][][]int32{nil, {gamma, nil, nil}} {
		sparse := GroupCountWithCard(tab, cols, recode, nil)
		if sparse.Dense() {
			t.Fatal("nil card must force the sparse kernel")
		}
		dense := GroupCount(tab, cols, recode)
		if !dense.Dense() {
			t.Fatal("inferred cardinalities should give a dense scan here")
		}
		requireSameFreqSet(t, dense, sparse)
		for _, workers := range []int{2, 4, 7} {
			requireSameFreqSet(t, GroupCountParallelSched(tab, cols, recode, InferCard(tab, cols, recode), workers, nil, nil), sparse)
		}
	}
}

// TestSuppressionExceedsMatchesTuplesBelow pins the early-exit check
// against the full sum on both representations.
func TestSuppressionExceedsMatchesTuplesBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		f := NewFreqSetWithCard([]int{0}, []int{32})
		for i := 0; i < 20; i++ {
			f.Add([]int32{int32(rng.Intn(32))}, int64(1+rng.Intn(5)))
		}
		variants := []*FreqSet{f, f.Clone()}
		variants[1].spill()
		for _, v := range variants {
			for k := int64(1); k <= 8; k++ {
				below := v.TuplesBelow(k)
				for _, budget := range []int64{0, below - 1, below, below + 1} {
					if budget < 0 {
						continue
					}
					if got, want := v.SuppressionExceeds(k, budget), below > budget; got != want {
						t.Fatalf("SuppressionExceeds(%d, %d) = %v, want %v (below=%d)", k, budget, got, want, below)
					}
				}
			}
		}
	}
}

// TestDenseHotPathAllocations extends the allocation pins to the dense
// kernel: Add and Count on a dense set must not allocate at all.
func TestDenseHotPathAllocations(t *testing.T) {
	f := NewFreqSetWithCard([]int{0, 1, 2}, []int{8, 8, 8})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)
	if !f.Dense() {
		t.Fatal("expected dense representation")
	}
	if n := testing.AllocsPerRun(200, func() { f.Add(codes, 1) }); n != 0 {
		t.Errorf("dense Add allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Count(codes) }); n != 0 {
		t.Errorf("dense Count allocates %.1f objects per call, want 0", n)
	}
}

// benchScanTable builds the fixed table and generalization used by the
// kernel microbenchmarks: three columns recoded to small generalized
// domains, the dense-eligible shape the search spends its time in.
func benchScanTable(tb testing.TB) (*Table, []int, [][]int32) {
	tab := randomTable(tb, 16*minShardRows, 41)
	cols := []int{0, 1, 2}
	recode := make([][]int32, 3)
	for i, c := range cols {
		m := make([]int32, tab.Dict(c).Len())
		for b := range m {
			m[b] = int32(b % 3)
		}
		recode[i] = m
	}
	return tab, cols, recode
}

// BenchmarkFreqSetScan compares the two kernels on the scan hot loop
// (GroupCount with recoding). The allocs/op column is part of the bench
// gate: the dense path must stay allocation-flat per run.
func BenchmarkFreqSetScan(b *testing.B) {
	tab, cols, recode := benchScanTable(b)
	card := InferCard(tab, cols, recode)
	b.Run("kernel=sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GroupCountWithCard(tab, cols, recode, nil)
		}
	})
	b.Run("kernel=dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GroupCountWithCard(tab, cols, recode, card)
		}
	})
}

// BenchmarkFreqSetRollup compares the two kernels on the rollup hot loop
// (RecodeWithCard of a fine frequency set to a coarser generalization).
func BenchmarkFreqSetRollup(b *testing.B) {
	tab, cols, _ := benchScanTable(b)
	fineDense := GroupCount(tab, cols, nil)
	fineSparse := GroupCountWithCard(tab, cols, nil, nil)
	maps := make([][]int32, len(cols))
	for i, c := range cols {
		m := make([]int32, tab.Dict(c).Len())
		for j := range m {
			m[j] = int32(j % 3)
		}
		maps[i] = m
	}
	card := InferCard(tab, cols, maps)
	b.Run("kernel=sparse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fineSparse.RecodeWithCard(maps, nil)
		}
	})
	b.Run("kernel=dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fineDense.RecodeWithCard(maps, card)
		}
	})
}
