package relation

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// FuzzKernelEquivalence is the kernel-equivalence property test: for a
// pseudo-random table, pseudo-random generalization hierarchies, and a
// pseudo-random rollup chain derived from the fuzz input, the dense
// mixed-radix kernel and the sparse map kernel must produce identical
// groups, counts, and EachSorted orders at every step — for the base scan,
// for every chained RecodeWithCard, for DropColumn margins, against a direct
// rescan of the table (the rollup property, across representations), for
// a sharded scan at 2 and 3 workers, and for scans through a Packing of
// the columns in a random order, whole and over a random subset, at 1, 2
// and 3 workers. Tables have 1–9 columns, so the dense scan takes a lone
// group pass and up to four group pairs, and up to two full blocks of
// rows and part of a third.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(60))
	f.Add(int64(42), uint8(3), uint16(200))
	f.Add(int64(-7), uint8(1), uint16(0))
	f.Add(int64(1<<40), uint8(3), uint16(255))
	f.Add(int64(5), uint8(4), uint16(scanBlock+1))
	f.Add(int64(9), uint8(8), uint16(2*scanBlock+255))
	f.Fuzz(func(t *testing.T, seed int64, ncolsRaw uint8, rowsRaw uint16) {
		rng := rand.New(rand.NewSource(seed))
		ncols := 1 + int(ncolsRaw%9)
		rows := int(rowsRaw % (2*scanBlock + 256))

		// Random hierarchies: per column a chain of many-to-one step maps,
		// sizes[l] distinct values at level l. The base layout stays within
		// DenseMinCells cells, so the dense kernel is chosen at any width
		// and any row count.
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}[:ncols]
		tab := MustNewTable(names...)
		sizes := make([][]int, ncols)     // sizes[i][l]: domain size of column i at level l
		steps := make([][][]int32, ncols) // steps[i][l]: level l code -> level l+1 code
		cells := 1
		for i := 0; i < ncols; i++ {
			dom := 1 + rng.Intn(min(9, DenseMinCells/cells))
			cells *= dom
			for v := 0; v < dom; v++ {
				tab.Dict(i).Encode(string(rune('a' + v)))
			}
			height := 1 + rng.Intn(3)
			sizes[i] = []int{dom}
			for l := 0; l < height; l++ {
				cur := sizes[i][l]
				next := 1 + rng.Intn(cur)
				step := make([]int32, cur)
				for c := range step {
					step[c] = int32(rng.Intn(next))
				}
				steps[i] = append(steps[i], step)
				sizes[i] = append(sizes[i], next)
			}
		}
		codes := make([]int32, ncols)
		for r := 0; r < rows; r++ {
			for i := 0; i < ncols; i++ {
				codes[i] = int32(rng.Intn(sizes[i][0]))
			}
			if err := tab.AppendCoded(codes); err != nil {
				t.Fatal(err)
			}
		}

		// compose builds the level from -> level to map of column i (nil for
		// identity), mirroring core.Input's composed dimension tables.
		compose := func(i, from, to int) []int32 {
			if from == to {
				return nil
			}
			m := append([]int32(nil), steps[i][from]...)
			for l := from + 1; l < to; l++ {
				for c, g := range m {
					m[c] = steps[i][l][g]
				}
			}
			return m
		}
		cols := make([]int, ncols)
		for i := range cols {
			cols[i] = i
		}
		cardAt := func(levels []int) []int {
			card := make([]int, ncols)
			for i, l := range levels {
				card[i] = sizes[i][l]
			}
			return card
		}
		mapsBetween := func(from, to []int) [][]int32 {
			maps := make([][]int32, ncols)
			for i := range maps {
				maps[i] = compose(i, from[i], to[i])
			}
			return maps
		}
		zero := make([]int, ncols)

		// Base scan: dense (explicit card) vs sparse (nil card).
		levels := append([]int(nil), zero...)
		dense := GroupCountWithCard(tab, cols, nil, cardAt(levels))
		if !dense.Dense() {
			t.Fatal("the base scan must take the dense kernel")
		}
		sparse := GroupCountWithCard(tab, cols, nil, nil)
		requireSameFreqSet(t, dense, sparse)

		// Rollup chain: raise random attributes and roll both kernels up,
		// cross-checking against a direct generalized scan each time.
		for step := 0; step < 3; step++ {
			next := append([]int(nil), levels...)
			raised := false
			for i := range next {
				if next[i] < len(sizes[i])-1 && rng.Intn(2) == 1 {
					next[i] = next[i] + 1 + rng.Intn(len(sizes[i])-1-next[i])
					raised = true
				}
			}
			if !raised {
				continue
			}
			maps := mapsBetween(levels, next)
			dense = dense.RecodeWithCard(maps, cardAt(next))
			sparse = sparse.RecodeWithCard(maps, nil)
			requireSameFreqSet(t, dense, sparse)
			direct := GroupCountWithCard(tab, cols, mapsBetween(zero, next), nil)
			requireSameFreqSet(t, dense, direct)
			levels = next
		}

		// Sharded scans at the last level: a table under 2·minShardRows
		// scans sequentially, so the check scans the table repeated until
		// every worker gets a chunk of its own.
		if rows > 0 {
			big := tab.Clone()
			for big.NumRows() < 3*minShardRows {
				for r := 0; r < rows; r++ {
					for i := range codes {
						codes[i] = tab.Code(r, i)
					}
					if err := big.AppendCoded(codes); err != nil {
						t.Fatal(err)
					}
				}
			}
			maps := mapsBetween(zero, levels)
			want := GroupCountWithCard(big, cols, maps, nil)
			for _, workers := range []int{2, 3} {
				requireSameFreqSet(t, GroupCountParallelSched(big, cols, maps, InferCard(big, cols, maps), workers, nil, nil), want)
			}

			// Packed scans: the columns packed in a random order, then
			// scanned whole and over a random subset in a random order,
			// whose unscanned members must contribute nothing. A second
			// generator keeps the stream above and below unchanged.
			prng := rand.New(rand.NewSource(seed ^ 0x5eed))
			perm := prng.Perm(ncols)
			pack := NewPacking(big, perm)
			sub := perm[:1+prng.Intn(ncols)]
			prng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			subMaps := make([][]int32, len(sub))
			subCard := make([]int, len(sub))
			for i, c := range sub {
				subMaps[i], subCard[i] = maps[c], sizes[c][levels[c]]
			}
			subWant := GroupCountWithCard(big, sub, subMaps, nil)
			for _, workers := range []int{1, 2, 3} {
				requireSameFreqSet(t, GroupCountParallelSched(big, cols, maps, cardAt(levels), workers, nil, pack), want)
				requireSameFreqSet(t, GroupCountParallelSched(big, sub, subMaps, subCard, workers, nil, pack), subWant)
			}
		}

		// Margins: dropping any column must agree across representations.
		for pos := 0; pos < ncols && ncols > 1; pos++ {
			requireSameFreqSet(t, dense.DropColumn(pos), sparse.DropColumn(pos))
		}
	})
}

// FuzzReadCSV asserts ReadCSV never panics on arbitrary bytes and that
// whatever it accepts round-trips losslessly through WriteCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n"))
	f.Add([]byte("a,b\n\"x,y\",2\n"))
	f.Add([]byte(""))
	f.Add([]byte("a\n\"unterminated"))
	f.Add([]byte("h1,h2,h3\n,,\n1,2,3\n"))
	f.Add([]byte("\xff\xfe,bin\n1,2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadCSV(bytes.NewReader(data), true)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var out bytes.Buffer
		if err := tab.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV failed on accepted input: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(out.String()), true)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumRows() != tab.NumRows() || back.NumCols() != tab.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				back.NumRows(), back.NumCols(), tab.NumRows(), tab.NumCols())
		}
		for r := 0; r < tab.NumRows(); r++ {
			for c := 0; c < tab.NumCols(); c++ {
				if tab.Value(r, c) != back.Value(r, c) {
					t.Fatalf("cell (%d,%d) changed: %q vs %q", r, c, tab.Value(r, c), back.Value(r, c))
				}
			}
		}
	})
}
