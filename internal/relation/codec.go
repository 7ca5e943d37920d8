package relation

// Binary frequency-set codec — a deterministic, self-describing byte form
// of a FreqSet. It was the wire format of the retired multi-process
// partition mode, where each worker counted its row range, encoded it and
// shipped it back for a merge with AddFrom; no library path calls it now.
// The encoding is deterministic (EachSorted order) so identical sets
// always produce identical bytes regardless of representation or
// insertion history, and it carries the layout metadata (columns,
// cardinality bounds) so the decoder can rebuild the adaptive
// representation a local scan would have chosen.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// freqSetCodecVersion guards the format: a version byte turns any future
// drift into a clean error instead of silent misparsing.
const freqSetCodecVersion = 1

// EncodeFreqSet appends the binary encoding of f to buf and returns the
// extended slice. Layout: version byte, column count, the column indexes,
// a cardinality flag plus the per-column bounds when known, then the group
// count followed by the groups in lexicographic code order — each group a
// run of per-column code varints and a count varint. All integers are
// unsigned varints; codes and counts are non-negative by the FreqSet
// contract.
func EncodeFreqSet(buf []byte, f *FreqSet) []byte {
	buf = append(buf, freqSetCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(f.Cols)))
	for _, c := range f.Cols {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	if f.card != nil {
		buf = append(buf, 1)
		for _, c := range f.card {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(f.Len()))
	f.EachSorted(func(codes []int32, count int64) {
		for _, c := range codes {
			buf = binary.AppendUvarint(buf, uint64(c))
		}
		buf = binary.AppendUvarint(buf, uint64(count))
	})
	return buf
}

// DecodeFreqSet parses one EncodeFreqSet payload. workload is the input
// size the representation choice should assume — pass the scanned table's
// total row count so the decoded set picks the same dense/sparse layout a
// local scan of that table would (see newFreqSetSized); the choice never
// affects observable behavior, only memory and merge speed. The whole
// payload must be consumed: trailing bytes are an error, as is any
// truncation, an unknown version, or an out-of-range code or count.
func DecodeFreqSet(data []byte, workload int) (*FreqSet, error) {
	d := decoder{data: data}
	if v := d.byte(); v != freqSetCodecVersion {
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("relation: frequency-set codec version %d, want %d", v, freqSetCodecVersion)
	}
	ncols := d.uvarint()
	if d.err == nil && ncols > math.MaxInt32 {
		return nil, fmt.Errorf("relation: frequency set claims %d columns", ncols)
	}
	cols := make([]int, ncols)
	for i := range cols {
		c := d.uvarint()
		if d.err == nil && c > math.MaxInt32 {
			return nil, fmt.Errorf("relation: column index %d out of range", c)
		}
		cols[i] = int(c)
	}
	var card []int
	switch d.byte() {
	case 1:
		card = make([]int, ncols)
		for i := range card {
			c := d.uvarint()
			if d.err == nil && (c == 0 || c > math.MaxInt32) {
				return nil, fmt.Errorf("relation: cardinality bound %d out of range", c)
			}
			card[i] = int(c)
		}
	case 0:
	default:
		if d.err == nil {
			return nil, fmt.Errorf("relation: malformed cardinality flag")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	f := newFreqSetSized(cols, card, workload)
	ngroups := d.uvarint()
	codes := make([]int32, ncols)
	for g := uint64(0); g < ngroups; g++ {
		for i := range codes {
			c := d.uvarint()
			if d.err == nil && c > math.MaxInt32 {
				return nil, fmt.Errorf("relation: group code %d out of range", c)
			}
			codes[i] = int32(c)
		}
		count := d.uvarint()
		if d.err != nil {
			return nil, d.err
		}
		if count == 0 || count > math.MaxInt64 {
			return nil, fmt.Errorf("relation: group count %d out of range", count)
		}
		f.Add(codes, int64(count))
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != d.off {
		return nil, fmt.Errorf("relation: %d trailing bytes after frequency set", len(d.data)-d.off)
	}
	return f, nil
}

// decoder is a cursor over an encoded payload that latches the first
// error, so the parse loops above stay linear instead of nesting checks.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.err = fmt.Errorf("relation: truncated frequency set")
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("relation: truncated frequency set")
		return 0
	}
	d.off += n
	return v
}
