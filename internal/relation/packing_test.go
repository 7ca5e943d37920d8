package relation

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"incognito/internal/sched"
)

// packTable builds a table of rows pseudo-random rows whose column i has
// exactly doms[i] base values, every value encoded up front.
func packTable(tb testing.TB, doms []int, rows int, seed int64) *Table {
	tb.Helper()
	names := make([]string, len(doms))
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	tab := MustNewTable(names...)
	for i, dom := range doms {
		for v := 0; v < dom; v++ {
			tab.Dict(i).Encode(string(rune(0x100 + v)))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	codes := make([]int32, len(doms))
	for r := 0; r < rows; r++ {
		for i, dom := range doms {
			codes[i] = int32(rng.Intn(dom))
		}
		if err := tab.AppendCoded(codes); err != nil {
			tb.Fatal(err)
		}
	}
	return tab
}

// packedCols lists each group's member columns.
func packedCols(p *Packing) [][]int {
	var out [][]int
	for _, g := range p.groups {
		out = append(out, g.cols)
	}
	return out
}

// TestPackingEdgeCases pins the grouping at the bound's edges and checks
// scans through each packing against the sparse kernel and a naive count:
// every column at base level and halved, and single columns (whose group
// partners contribute nothing), at 1, 2 and 3 workers.
func TestPackingEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		doms   []int
		groups [][]int
	}{
		{"one-value column", []int{1, 6, 5}, [][]int{{0, 2, 1}}},
		{"product at the bound", []int{32, 32}, [][]int{{1, 0}}},
		{"product past the bound", []int{32, 33}, [][]int{{1}, {0}}},
		{"column past the bound", []int{packCells + 1, 4, 3}, [][]int{{0}, {2, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab := packTable(t, c.doms, 3*minShardRows+77, int64(len(c.doms)))
			cols := make([]int, len(c.doms))
			for i := range cols {
				cols[i] = i
			}
			p := NewPacking(tab, cols)
			if got := packedCols(p); !reflect.DeepEqual(got, c.groups) {
				t.Fatalf("groups %v, want %v", got, c.groups)
			}
			for _, g := range p.groups {
				if len(g.cols) == 1 && &g.codes[0] != &tab.Codes(g.cols[0])[0] {
					t.Fatalf("singleton group %v copies its column instead of aliasing it", g.cols)
				}
			}
			halve := make([][]int32, len(cols))
			halved := make([]int, len(cols))
			for i, dom := range c.doms {
				halve[i] = make([]int32, dom)
				for b := range halve[i] {
					halve[i][b] = int32(b / 2)
				}
				halved[i] = (dom + 1) / 2
			}
			type scan struct {
				cols   []int
				recode [][]int32
				card   []int
			}
			scans := []scan{{cols, nil, c.doms}, {cols, halve, halved}}
			for i := range cols {
				scans = append(scans, scan{cols[i : i+1], halve[i : i+1], halved[i : i+1]})
			}
			for _, s := range scans {
				if !DenseEligible(s.card, tab.NumRows()) {
					continue
				}
				want := GroupCountWithCard(tab, s.cols, s.recode, nil)
				for _, workers := range []int{1, 2, 3} {
					got := GroupCountParallelSched(tab, s.cols, s.recode, s.card, workers, nil, p)
					if !got.Dense() {
						t.Fatalf("cols %v, %d workers: expected a dense scan", s.cols, workers)
					}
					requireSameFreqSet(t, got, want)
					requireNaiveCount(t, got, tab, s.cols, s.recode, 0, tab.NumRows())
				}
			}
		})
	}
}

// TestPackingFallsBackToSingletons: a packing handed a scan it does not
// fit — another table, rows appended since it was built, a column it does
// not pack, or a column scanned twice — scans through singleton groups
// and still counts right.
func TestPackingFallsBackToSingletons(t *testing.T) {
	doms := []int{5, 4, 3}
	tab := packTable(t, doms, 500, 3)
	p := NewPacking(tab, []int{0, 1})
	other := packTable(t, doms, 500, 4)
	for _, c := range []struct {
		t    *Table
		cols []int
	}{
		{tab, []int{0, 1}},
		{other, []int{0, 1}},
		{tab, []int{0, 2}},
		{tab, []int{1, 1}},
	} {
		card := make([]int, len(c.cols))
		for i, col := range c.cols {
			card[i] = doms[col]
		}
		fits := p.forScan(c.t, c.cols) == p
		if want := c.t == tab && c.cols[1] == 1 && c.cols[0] == 0; fits != want {
			t.Fatalf("table %p cols %v: packing used = %v, want %v", c.t, c.cols, fits, want)
		}
		got := GroupCountParallelSched(c.t, c.cols, nil, card, 1, nil, p)
		requireSameFreqSet(t, got, GroupCountWithCard(c.t, c.cols, nil, nil))
	}
	if err := tab.AppendCoded([]int32{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if p.forScan(tab, []int{0, 1}) == p {
		t.Fatal("a packing built over fewer rows was used")
	}
	got := GroupCountParallelSched(tab, []int{0, 1}, nil, doms[:2], 1, nil, p)
	requireSameFreqSet(t, got, GroupCountWithCard(tab, []int{0, 1}, nil, nil))
}

// TestPackedScanAllocationsFlat: a packed scan reuses the table buffer a
// finished scan released, so a sequential scan allocates only the set it
// returns, and its allocations grow with neither the rows nor the chunks:
// 100,000 rows allocate what 10,000 do, and at 2 workers 8 chunks
// allocate no more than 2, apart from the scheduler's own deque growth
// and one partial set, as in TestParallelScanBuildsTablesOnce.
func TestPackedScanAllocationsFlat(t *testing.T) {
	scan := func(rows, workers int) float64 {
		tab, cols, recode, card := blockTable(t, 8, rows, 5)
		p := NewPacking(tab, cols)
		if len(p.groups) >= len(cols) {
			t.Fatalf("%v packed into %d groups, want fewer than columns", cols, len(p.groups))
		}
		if !GroupCountParallelSched(tab, cols, recode, card, workers, nil, p).Dense() {
			t.Fatalf("%d rows: expected a dense scan", rows)
		}
		return testing.AllocsPerRun(50, func() { GroupCountParallelSched(tab, cols, recode, card, workers, nil, p) })
	}
	_, cols, _, card := blockTable(t, 8, 0, 9)
	partial := testing.AllocsPerRun(50, func() { newFreqSetSized(cols, card, 20_000) })
	small, large := scan(10_000, 1), scan(100_000, 1)
	if small != large {
		t.Errorf("a packed scan allocates %.0f objects at 10k rows and %.0f at 100k", small, large)
	}
	if small > partial {
		t.Errorf("a sequential packed scan allocates %.0f objects, more than the %.0f of its result set", small, partial)
	}
	two, eight := scan(5_000, 2), scan(20_000, 2)
	tasks := func(n int) float64 {
		return testing.AllocsPerRun(50, func() { sched.Run(nil, 2, n, func(int, int) {}) })
	}
	if extra := tasks(8) - tasks(2); eight > two+extra+partial {
		t.Errorf("8 chunks allocate %.0f objects, 2 chunks %.0f: more than the scheduler's %.0f extra and one %.0f-object partial",
			eight, two, extra, partial)
	}
}

// TestPackingConcurrentScans: scans of several goroutines share one
// packing, as a run's parallel family searches do, each through its own
// table buffer, and every one counts right.
func TestPackingConcurrentScans(t *testing.T) {
	tab, cols, recode, card := blockTable(t, 6, 3*minShardRows, 11)
	p := NewPacking(tab, cols)
	want := GroupCountWithCard(tab, cols, recode, nil)
	sub := []int{4, 1}
	subWant := GroupCountWithCard(tab, sub, [][]int32{recode[4], recode[1]}, nil)
	var wg sync.WaitGroup
	got := make([]*FreqSet, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = GroupCountParallelSched(tab, cols, recode, card, 1+i%3, nil, p)
			} else {
				got[i] = GroupCountParallelSched(tab, sub, [][]int32{recode[4], recode[1]}, []int{card[4], card[1]}, 1+i%3, nil, p)
			}
		}(i)
	}
	wg.Wait()
	for i, f := range got {
		if i%2 == 0 {
			requireSameFreqSet(t, f, want)
		} else {
			requireSameFreqSet(t, f, subWant)
		}
	}
}
