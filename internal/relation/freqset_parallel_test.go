package relation

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomTable builds a deterministic pseudo-random table big enough to
// exercise real sharding (several minShardRows worth of rows).
func randomTable(tb testing.TB, rows int, seed int64) *Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	t := MustNewTable("a", "b", "c")
	for i := 0; i < rows; i++ {
		if err := t.AppendRow([]string{
			string(rune('a' + rng.Intn(7))),
			string(rune('a' + rng.Intn(4))),
			string(rune('a' + rng.Intn(11))),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestGroupCountParallelMatchesSequential checks the tentpole invariant of
// the sharded scan: identical groups and counts at every worker count,
// with and without recoding.
func TestGroupCountParallelMatchesSequential(t *testing.T) {
	tab := randomTable(t, 5*minShardRows+137, 3)
	gamma := make([]int32, tab.Dict(0).Len())
	for i := range gamma {
		gamma[i] = int32(i % 2)
	}
	for _, recode := range [][][]int32{nil, {gamma, nil, nil}} {
		want := freqAsMap(GroupCount(tab, []int{0, 1, 2}, recode))
		for _, workers := range []int{0, 1, 2, 3, 4, 7, 64} {
			got := freqAsMap(GroupCountParallelSched(tab, []int{0, 1, 2}, recode, InferCard(tab, []int{0, 1, 2}, recode), workers, nil, nil))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d recode=%v: parallel GroupCount diverged from sequential", workers, recode != nil)
			}
		}
	}
}

// TestGroupCountParallelSmallTable checks the small-table fallback: tables
// below the shard threshold must take the sequential path and still be
// correct.
func TestGroupCountParallelSmallTable(t *testing.T) {
	p := patients()
	want := freqAsMap(GroupCount(p, []int{0, 1}, nil))
	got := freqAsMap(GroupCountParallelSched(p, []int{0, 1}, nil, InferCard(p, []int{0, 1}, nil), 8, nil, nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel GroupCount on a small table diverged from sequential")
	}
}

func TestAddFromMergesCounts(t *testing.T) {
	a := NewFreqSet([]int{0, 1})
	a.Add([]int32{1, 2}, 3)
	a.Add([]int32{4, 5}, 1)
	b := NewFreqSet([]int{0, 1})
	b.Add([]int32{1, 2}, 2)
	b.Add([]int32{7, 7}, 5)
	a.AddFrom(b)
	if got := a.Count([]int32{1, 2}); got != 5 {
		t.Fatalf("merged count = %d, want 5", got)
	}
	if got := a.Count([]int32{4, 5}); got != 1 {
		t.Fatalf("untouched count = %d, want 1", got)
	}
	if got := a.Count([]int32{7, 7}); got != 5 {
		t.Fatalf("imported count = %d, want 5", got)
	}
	if a.Len() != 3 || a.Total() != 11 {
		t.Fatalf("Len=%d Total=%d, want 3 and 11", a.Len(), a.Total())
	}
	// b must be unchanged, and further mutation of a must not leak into b.
	a.Add([]int32{7, 7}, 1)
	if got := b.Count([]int32{7, 7}); got != 5 {
		t.Fatalf("AddFrom aliased counts into the source: got %d, want 5", got)
	}
}

// TestKeyRoundtripFullWidth pins pack/unpack over the whole int32 range.
// Codes with a live high byte occur in practice: internal/recoding folds
// hierarchy levels into the top byte (level<<24 | code), so dropping any
// byte silently merges groups that are distinct.
func TestKeyRoundtripFullWidth(t *testing.T) {
	hot := []int32{0, 1, 1 << 8, 1 << 16, 1 << 24, (2 << 24) | 7, -1, -1 << 24, 1<<31 - 1, -1 << 31}
	f := NewFreqSet([]int{0})
	for _, c := range hot {
		f.Add([]int32{c}, 1)
	}
	if f.Len() != len(hot) {
		t.Fatalf("distinct codes collapsed: Len=%d, want %d", f.Len(), len(hot))
	}
	seen := make(map[int32]int64)
	f.Each(func(codes []int32, count int64) { seen[codes[0]] = count })
	for _, c := range hot {
		if seen[c] != 1 {
			t.Fatalf("code %d round-tripped to count %d, want 1 (seen=%v)", c, seen[c], seen)
		}
		if got := f.Count([]int32{c}); got != 1 {
			t.Fatalf("Count(%d) = %d, want 1", c, got)
		}
	}
}

func TestAddFromRejectsMismatchedColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddFrom over mismatched columns did not panic")
		}
	}()
	a := NewFreqSet([]int{0, 1})
	b := NewFreqSet([]int{0, 2})
	a.AddFrom(b)
}

// TestHotPathAllocations guards the allocation fixes: Count and the
// unpack/iterate path must not allocate at all, and Add over an existing
// group must not re-allocate its key.
func TestHotPathAllocations(t *testing.T) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)

	if n := testing.AllocsPerRun(200, func() { f.Count(codes) }); n != 0 {
		t.Errorf("Count allocates %.1f objects per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Add(codes, 1) }); n != 0 {
		t.Errorf("Add over an existing group allocates %.1f objects per call, want 0", n)
	}
	sink := make([]int32, 3)
	if n := testing.AllocsPerRun(200, func() { unpackKey("abcdabcdabcd", sink) }); n != 0 {
		t.Errorf("unpackKey allocates %.1f objects per call, want 0", n)
	}
}

// BenchmarkFreqSetAdd measures the Add hot path; the allocs/op column is
// the regression guard for the scratch-buffer fix (existing groups must
// show 0 allocs/op).
func BenchmarkFreqSetAdd(b *testing.B) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(codes, 1)
	}
}

// BenchmarkFreqSetCount measures the lookup hot path; allocs/op must be 0.
func BenchmarkFreqSetCount(b *testing.B) {
	f := NewFreqSet([]int{0, 1, 2})
	codes := []int32{3, 1, 4}
	f.Add(codes, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Count(codes)
	}
}

// BenchmarkGroupCountSharded compares the sequential scan against the
// sharded scan on one fixed table.
func BenchmarkGroupCountSharded(b *testing.B) {
	tab := randomTable(b, 16*minShardRows, 5)
	cols := []int{0, 1, 2}
	card := InferCard(tab, cols, nil)
	b.Run("workers=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GroupCount(tab, cols, nil)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(benchName(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GroupCountParallelSched(tab, cols, nil, card, w, nil, nil)
			}
		})
	}
}

func benchName(workers int) string {
	return "workers=" + string(rune('0'+workers))
}
