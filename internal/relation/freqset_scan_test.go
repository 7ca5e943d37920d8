package relation

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"incognito/internal/sched"
)

// blockDoms are the base domain sizes of blockTable's columns. Odd columns
// are recoded onto half their domain, so the 9-column layout has 10,080
// cells and every width stays dense at the tables' row counts.
var blockDoms = []int{7, 4, 5, 3, 2, 6, 3, 4, 2}

// blockTable builds a deterministic table of rows pseudo-random rows over
// the first width blockDoms columns, with every base value encoded up
// front so the dictionaries do not depend on rows. It returns the scan
// columns, a recode that halves every odd column (identity elsewhere),
// and the recoded layout's cardinalities.
func blockTable(tb testing.TB, width, rows int, seed int64) (*Table, []int, [][]int32, []int) {
	tb.Helper()
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}[:width]
	tab := MustNewTable(names...)
	cols := make([]int, width)
	recode := make([][]int32, width)
	card := make([]int, width)
	for i, dom := range blockDoms[:width] {
		for v := 0; v < dom; v++ {
			tab.Dict(i).Encode(string(rune('a' + v)))
		}
		cols[i] = i
		card[i] = dom
		if i%2 == 1 {
			recode[i] = make([]int32, dom)
			for b := range recode[i] {
				recode[i][b] = int32(b / 2)
			}
			card[i] = (dom + 1) / 2
		}
	}
	rng := rand.New(rand.NewSource(seed))
	codes := make([]int32, width)
	for r := 0; r < rows; r++ {
		for i := range codes {
			codes[i] = int32(rng.Intn(blockDoms[i]))
		}
		if err := tab.AppendCoded(codes); err != nil {
			tb.Fatal(err)
		}
	}
	return tab, cols, recode, card
}

// requireNaiveCount fails unless f holds exactly a naive per-row count of
// the rows [lo, hi): the same groups and counts, Len equal to the number
// of groups, and EachSorted visiting every group once in strictly
// increasing code order.
func requireNaiveCount(t *testing.T, f *FreqSet, tab *Table, cols []int, recode [][]int32, lo, hi int) {
	t.Helper()
	want := naiveRangeCount(tab, cols, recode, lo, hi)
	if got := freqAsMap(f); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows [%d, %d): groups diverged from the naive count\ngot  %v\nwant %v", lo, hi, got, want)
	}
	if f.Len() != len(want) {
		t.Fatalf("rows [%d, %d): Len = %d, naive count has %d groups", lo, hi, f.Len(), len(want))
	}
	var prev []int32
	visited := 0
	f.EachSorted(func(codes []int32, count int64) {
		if visited > 0 && slices.Compare(prev, codes) >= 0 {
			t.Fatalf("rows [%d, %d): EachSorted visited %v after %v", lo, hi, codes, prev)
		}
		prev = append(prev[:0], codes...)
		visited++
	})
	if visited != len(want) {
		t.Fatalf("rows [%d, %d): EachSorted visited %d groups, want %d", lo, hi, visited, len(want))
	}
}

// TestDenseScanBlocks pins the dense scan's block loop against the sparse
// kernel and a naive per-row count at every width from 1 to 9: odd widths
// start with a lone column pass, wider ones take several column pairs.
// Row ranges end inside, at, and just past block boundaries, from a start
// that is not block-aligned; whole-table scans at several worker counts
// cut chunks that start mid-block too. A layout that lookups refuses
// makes every partial spill to the sparse loop and must still count
// right.
func TestDenseScanBlocks(t *testing.T) {
	const lo = 37
	lengths := []int{0, 1, scanBlock - 1, scanBlock, scanBlock + 1, 3*scanBlock + 7}
	for width := 1; width <= 9; width++ {
		tab, cols, recode, card := blockTable(t, width, 7*minShardRows+1001, int64(width))
		for _, n := range lengths {
			dense := GroupCountRange(tab, cols, recode, card, lo, lo+n)
			if !dense.Dense() {
				t.Fatalf("width %d, %d rows: expected a dense scan", width, n)
			}
			requireSameFreqSet(t, dense, GroupCountRange(tab, cols, recode, nil, lo, lo+n))
			requireNaiveCount(t, dense, tab, cols, recode, lo, lo+n)
		}

		// card[0] one short of column 0's domain: lookups refuses it.
		refused := append([]int(nil), card...)
		refused[0]--
		if singletons(tab, cols).lookups(cols, recode, refused) != nil {
			t.Fatalf("width %d: lookups accepted a layout a code falls outside", width)
		}
		sparse := GroupCountWithCard(tab, cols, recode, nil)
		for _, workers := range []int{1, 2, 3, 7} {
			got := GroupCountParallelSched(tab, cols, recode, card, workers, nil, nil)
			if !got.Dense() {
				t.Fatalf("width %d, %d workers: expected a dense scan", width, workers)
			}
			requireSameFreqSet(t, got, sparse)
			requireNaiveCount(t, got, tab, cols, recode, 0, tab.NumRows())

			spilled := GroupCountParallelSched(tab, cols, recode, refused, workers, nil, nil)
			if spilled.Dense() {
				t.Fatalf("width %d, %d workers: a refused layout must spill", width, workers)
			}
			requireSameFreqSet(t, spilled, sparse)
		}
	}
}

// TestDenseScanAllocationsFlat pins the dense scan's allocations to the
// scan, not the rows: the block of composite codes lives on the stack, so
// a scan of 100,000 rows allocates exactly what a scan of 10,000 does.
func TestDenseScanAllocationsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		tab, cols, recode, card := blockTable(t, 8, rows, 5)
		if !GroupCountWithCard(tab, cols, recode, card).Dense() {
			t.Fatalf("%d rows: expected a dense scan", rows)
		}
		return testing.AllocsPerRun(20, func() { GroupCountWithCard(tab, cols, recode, card) })
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Errorf("a dense scan allocates %.0f objects at 10k rows and %.0f at 100k", small, large)
	}
}

// TestParallelScanBuildsTablesOnce: a sharded dense scan builds its lookup
// tables once and shares them with every chunk, so at 2 workers a scan cut
// into 8 chunks allocates no more than one cut into 2. Two allowances
// are not the scan's: the scheduler's deques grow with the task count
// (measured here by scheduling the same numbers of empty tasks), and
// which workers win a chunk varies from run to run, so the 2-chunk scan
// may build one partial set fewer.
func TestParallelScanBuildsTablesOnce(t *testing.T) {
	scan := func(rows, wantChunks int) float64 {
		tab, cols, recode, card := blockTable(t, 8, rows, 9)
		if chunks := min(2*scanChunksPerWorker, rows/minShardRows); chunks != wantChunks {
			t.Fatalf("%d rows cut into %d chunks, want %d", rows, chunks, wantChunks)
		}
		return testing.AllocsPerRun(50, func() { GroupCountParallelSched(tab, cols, recode, card, 2, nil, nil) })
	}
	two, eight := scan(5_000, 2), scan(20_000, 8)
	tasks := func(n int) float64 {
		return testing.AllocsPerRun(50, func() { sched.Run(nil, 2, n, func(int, int) {}) })
	}
	schedExtra := tasks(8) - tasks(2)
	_, cols, _, card := blockTable(t, 8, 0, 9)
	partial := testing.AllocsPerRun(50, func() { newFreqSetSized(cols, card, 20_000) })
	if eight > two+schedExtra+partial {
		t.Errorf("8 chunks allocate %.0f objects, 2 chunks %.0f: more than the scheduler's %.0f extra and one %.0f-object partial",
			eight, two, schedExtra, partial)
	}
}
