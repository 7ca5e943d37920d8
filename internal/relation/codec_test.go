package relation

import (
	"bytes"
	"reflect"
	"testing"
)

// codecTestSets builds equivalent dense and sparse frequency sets with a
// few groups, plus edge cases (empty, single group, cardinality-free).
func codecTestSets() map[string]*FreqSet {
	cols := []int{2, 5}
	card := []int{4, 3}
	dense := NewFreqSetWithCard(cols, card)
	sparse := NewFreqSet(cols)
	for _, g := range []struct {
		codes []int32
		n     int64
	}{
		{[]int32{0, 0}, 3},
		{[]int32{3, 2}, 1},
		{[]int32{1, 1}, 1 << 40},
		{[]int32{2, 0}, 7},
	} {
		dense.Add(g.codes, g.n)
		sparse.Add(g.codes, g.n)
	}
	single := NewFreqSet([]int{0})
	single.Add([]int32{9}, 2)
	return map[string]*FreqSet{
		"dense":     dense,
		"sparse":    sparse,
		"empty":     NewFreqSet([]int{1, 2, 3}),
		"single":    single,
		"cardEmpty": NewFreqSetWithCard([]int{0}, []int{5}),
	}
}

func freqSetGroups(f *FreqSet) map[string]int64 {
	out := make(map[string]int64)
	f.Each(func(codes []int32, count int64) {
		var k []byte
		for _, c := range codes {
			k = append(k, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		out[string(k)] = count
	})
	return out
}

// TestFreqSetCodecRoundTrip checks every representation survives an
// encode/decode cycle with identical columns, cardinalities, and groups.
func TestFreqSetCodecRoundTrip(t *testing.T) {
	for name, f := range codecTestSets() {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeFreqSet(EncodeFreqSet(nil, f), 1000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Cols, f.Cols) {
				t.Fatalf("columns changed: %v vs %v", got.Cols, f.Cols)
			}
			if !reflect.DeepEqual(got.Card(), f.Card()) {
				t.Fatalf("cardinalities changed: %v vs %v", got.Card(), f.Card())
			}
			if got.Len() != f.Len() || got.Total() != f.Total() {
				t.Fatalf("shape changed: len %d/%d total %d/%d", got.Len(), f.Len(), got.Total(), f.Total())
			}
			if !reflect.DeepEqual(freqSetGroups(got), freqSetGroups(f)) {
				t.Fatal("group contents changed across the round trip")
			}
		})
	}
}

// TestFreqSetCodecDeterministic checks equal sets encode to equal bytes
// regardless of representation-internal state: the dense and sparse
// variants of the same logical set carry different metadata (the dense one
// declares cardinalities), so compare each against a re-encode of its own
// decoded form, and the two sparse insertion orders against each other.
func TestFreqSetCodecDeterministic(t *testing.T) {
	a, b := NewFreqSet([]int{0, 1}), NewFreqSet([]int{0, 1})
	groups := [][]int32{{5, 0}, {0, 7}, {3, 3}, {1, 2}, {2, 1}}
	for _, g := range groups {
		a.Add(g, 2)
	}
	for i := len(groups) - 1; i >= 0; i-- {
		b.Add(groups[i], 1)
		b.Add(groups[i], 1)
	}
	if !bytes.Equal(EncodeFreqSet(nil, a), EncodeFreqSet(nil, b)) {
		t.Fatal("insertion order leaked into the encoding")
	}
	for name, f := range codecTestSets() {
		enc := EncodeFreqSet(nil, f)
		dec, err := DecodeFreqSet(enc, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(enc, EncodeFreqSet(nil, dec)) {
			t.Fatalf("%s: decode/re-encode changed the bytes", name)
		}
	}
}

// TestFreqSetCodecPartialMerge checks the codec preserves what a merge
// needs: counting disjoint row ranges, shipping each through the
// codec, and merging the partials must equal the one-shot full scan —
// groups, representation metadata, and all.
func TestFreqSetCodecPartialMerge(t *testing.T) {
	tab := randomTable(t, 4000, 11)
	cols := []int{0, 1}
	card := InferCard(tab, cols, nil)
	want := GroupCountWithCard(tab, cols, nil, card)
	for _, parts := range []int{1, 2, 3, 7} {
		var got *FreqSet
		n := tab.NumRows()
		for p := 0; p < parts; p++ {
			part := GroupCountRange(tab, cols, nil, card, p*n/parts, (p+1)*n/parts)
			dec, err := DecodeFreqSet(EncodeFreqSet(nil, part), n)
			if err != nil {
				t.Fatal(err)
			}
			if p == 0 {
				got = dec
			} else {
				got.AddFrom(dec)
			}
		}
		if got.Dense() != want.Dense() {
			t.Fatalf("parts=%d: representation diverged (dense %v vs %v)", parts, got.Dense(), want.Dense())
		}
		if !reflect.DeepEqual(freqSetGroups(got), freqSetGroups(want)) {
			t.Fatalf("parts=%d: merged partials differ from the full scan", parts)
		}
	}
}

// TestFreqSetCodecRejectsMalformed checks the decoder fails cleanly on
// truncation, version skew, and trailing garbage instead of misparsing.
func TestFreqSetCodecRejectsMalformed(t *testing.T) {
	f := NewFreqSet([]int{0, 1})
	f.Add([]int32{1, 2}, 3)
	f.Add([]int32{4, 5}, 6)
	enc := EncodeFreqSet(nil, f)
	if _, err := DecodeFreqSet(nil, 10); err == nil {
		t.Fatal("decoded an empty payload")
	}
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeFreqSet(enc[:cut], 10); err == nil {
			t.Fatalf("decoded a payload truncated to %d of %d bytes", cut, len(enc))
		}
	}
	bad := append([]byte{99}, enc[1:]...)
	if _, err := DecodeFreqSet(bad, 10); err == nil {
		t.Fatal("accepted an unknown codec version")
	}
	if _, err := DecodeFreqSet(append(enc[:len(enc):len(enc)], 0), 10); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}
