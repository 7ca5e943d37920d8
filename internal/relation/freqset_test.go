package relation

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// naiveGroupCount is a reference implementation using decoded strings.
func naiveGroupCount(t *Table, cols []int, recode [][]int32) map[string]int64 {
	return naiveRangeCount(t, cols, recode, 0, t.NumRows())
}

// naiveRangeCount is naiveGroupCount over the rows [lo, hi).
func naiveRangeCount(t *Table, cols []int, recode [][]int32, lo, hi int) map[string]int64 {
	out := make(map[string]int64)
	for r := lo; r < hi; r++ {
		key := ""
		for i, c := range cols {
			code := t.Code(r, c)
			if recode != nil && recode[i] != nil {
				code = recode[i][code]
			}
			key += "\x00" + string(rune(code+1))
		}
		out[key]++
	}
	return out
}

func freqAsMap(f *FreqSet) map[string]int64 {
	out := make(map[string]int64)
	f.Each(func(codes []int32, count int64) {
		key := ""
		for _, c := range codes {
			key += "\x00" + string(rune(c+1))
		}
		out[key] = count
	})
	return out
}

func TestGroupCountMatchesPaperExample(t *testing.T) {
	// §1.1: "SELECT COUNT(*) FROM Patients GROUP BY Sex, Zipcode ... the
	// result includes groups with count fewer than 2", so Patients is not
	// 2-anonymous w.r.t. <Sex, Zipcode>.
	p := patients()
	f := GroupCount(p, []int{p.ColumnIndex("Sex"), p.ColumnIndex("Zipcode")}, nil)
	if f.Len() != 4 {
		t.Fatalf("distinct (Sex, Zipcode) groups = %d, want 4", f.Len())
	}
	if f.Total() != 6 {
		t.Fatalf("Total = %d, want 6", f.Total())
	}
	if f.IsKAnonymous(2, 0) {
		t.Fatal("Patients reported 2-anonymous w.r.t. <Sex, Zipcode>; the paper says it is not")
	}
	// <Sex> alone: 3 males, 3 females — 2-anonymous (indeed 3-anonymous).
	g := GroupCount(p, []int{p.ColumnIndex("Sex")}, nil)
	if !g.IsKAnonymous(3, 0) {
		t.Fatal("Patients should be 3-anonymous w.r.t. <Sex>")
	}
	if g.MinCount() != 3 {
		t.Fatalf("MinCount = %d, want 3", g.MinCount())
	}
}

func TestGroupCountWithRecode(t *testing.T) {
	p := patients()
	zip := p.ColumnIndex("Zipcode")
	// Build a recode collapsing all zipcodes to one value: every row groups
	// together, so with Sex ungeneralized the counts are 3 and 3.
	all := make([]int32, p.Dict(zip).Len())
	f := GroupCount(p, []int{p.ColumnIndex("Sex"), zip}, [][]int32{nil, all})
	if f.Len() != 2 {
		t.Fatalf("groups = %d, want 2", f.Len())
	}
	if !f.IsKAnonymous(3, 0) {
		t.Fatal("fully generalized zipcode should give 3-anonymity with Sex")
	}
}

func TestGroupCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tab := MustNewTable("a", "b", "c")
		nrows := rng.Intn(60)
		for i := 0; i < nrows; i++ {
			_ = tab.AppendRow([]string{
				string(rune('a' + rng.Intn(4))),
				string(rune('a' + rng.Intn(3))),
				string(rune('a' + rng.Intn(5))),
			})
		}
		cols := []int{0, 2}
		got := freqAsMap(GroupCount(tab, cols, nil))
		want := naiveGroupCount(tab, cols, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: GroupCount mismatch\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestRollupProperty checks the paper's Rollup Property: the frequency set
// w.r.t. a generalized domain equals the recode-and-sum of the frequency set
// w.r.t. the finer domain.
func TestRollupProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tab := MustNewTable("x", "y")
		domX, domY := 1+r.Intn(8), 1+r.Intn(8)
		// Pre-register the domains so recode arrays cover every code.
		for i := 0; i < domX; i++ {
			tab.Dict(0).Encode(string(rune('a' + i)))
		}
		for i := 0; i < domY; i++ {
			tab.Dict(1).Encode(string(rune('a' + i)))
		}
		for i := 0; i < 40; i++ {
			_ = tab.AppendCoded([]int32{int32(r.Intn(domX)), int32(r.Intn(domY))})
		}
		// Random many-to-one generalization for x.
		gamma := make([]int32, domX)
		for i := range gamma {
			gamma[i] = int32(r.Intn(3))
		}
		fine := GroupCount(tab, []int{0, 1}, nil)
		recode := [][]int32{gamma, nil}
		viaRollup := fine.RecodeWithCard(recode, InferCard(tab, []int{0, 1}, recode))
		direct := GroupCount(tab, []int{0, 1}, recode)
		return reflect.DeepEqual(freqAsMap(viaRollup), freqAsMap(direct))
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSubsetPropertyViaDropColumn checks the Subset Property: dropping a
// grouping column can only merge groups, so every count stays the same or
// grows, and if the finer set is k-anonymous so is the coarser one.
func TestSubsetPropertyViaDropColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		tab := MustNewTable("a", "b")
		for i := 0; i < 30; i++ {
			_ = tab.AppendRow([]string{
				string(rune('a' + rng.Intn(3))),
				string(rune('a' + rng.Intn(4))),
			})
		}
		fine := GroupCount(tab, []int{0, 1}, nil)
		coarse := fine.DropColumn(1)
		if coarse.Total() != fine.Total() {
			t.Fatalf("DropColumn changed total: %d vs %d", coarse.Total(), fine.Total())
		}
		if len(coarse.Cols) != 1 || coarse.Cols[0] != 0 {
			t.Fatalf("DropColumn kept wrong columns: %v", coarse.Cols)
		}
		for k := int64(1); k <= 5; k++ {
			if fine.IsKAnonymous(k, 0) && !coarse.IsKAnonymous(k, 0) {
				t.Fatalf("subset property violated at k=%d", k)
			}
		}
		// Cross-check against a direct group count.
		direct := GroupCount(tab, []int{0}, nil)
		if !reflect.DeepEqual(freqAsMap(coarse), freqAsMap(direct)) {
			t.Fatal("DropColumn disagrees with direct GroupCount")
		}
	}
}

func TestTuplesBelowAndSuppression(t *testing.T) {
	f := NewFreqSet([]int{0})
	f.Add([]int32{0}, 5)
	f.Add([]int32{1}, 1)
	f.Add([]int32{2}, 2)
	if got := f.TuplesBelow(3); got != 3 {
		t.Fatalf("TuplesBelow(3) = %d, want 3", got)
	}
	if f.IsKAnonymous(3, 2) {
		t.Fatal("3 undersized tuples should not fit threshold 2")
	}
	if !f.IsKAnonymous(3, 3) {
		t.Fatal("3 undersized tuples should fit threshold 3")
	}
	if !f.IsKAnonymous(1, 0) {
		t.Fatal("every non-empty group satisfies 1-anonymity")
	}
}

func TestFreqSetEmpty(t *testing.T) {
	f := NewFreqSet([]int{0})
	if f.MinCount() != 0 || f.Total() != 0 || f.Len() != 0 {
		t.Fatal("empty frequency set should report zeros")
	}
	if !f.IsKAnonymous(5, 0) {
		t.Fatal("an empty relation is vacuously k-anonymous")
	}
}

func TestFreqSetAddAndCount(t *testing.T) {
	f := NewFreqSet([]int{1, 3})
	f.Add([]int32{4, 9}, 2)
	f.Add([]int32{4, 9}, 3)
	if got := f.Count([]int32{4, 9}); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := f.Count([]int32{9, 4}); got != 0 {
		t.Fatalf("Count of absent group = %d, want 0", got)
	}
}

func TestEachSortedIsDeterministicAndComplete(t *testing.T) {
	f := NewFreqSet([]int{0, 1})
	f.Add([]int32{2, 1}, 1)
	f.Add([]int32{1, 2}, 2)
	f.Add([]int32{1, 1}, 3)
	var order [][]int32
	f.EachSorted(func(codes []int32, count int64) {
		order = append(order, append([]int32(nil), codes...))
	})
	if len(order) != 3 {
		t.Fatalf("EachSorted visited %d groups, want 3", len(order))
	}
	want := [][]int32{{1, 1}, {1, 2}, {2, 1}}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("EachSorted order = %v, want %v", order, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewFreqSet([]int{0})
	f.Add([]int32{1}, 1)
	g := f.Clone()
	g.Add([]int32{1}, 1)
	if f.Count([]int32{1}) != 1 || g.Count([]int32{1}) != 2 {
		t.Fatal("Clone is not independent")
	}
}
