package compress

import (
	"math/bits"

	"repro/internal/bitmap"
)

// DeltaBlock stores the first value and bit-packed successive differences.
// It suits near-monotonic sequences such as order keys, where deltas are
// tiny even though absolute values span the whole int32 range.
type DeltaBlock struct {
	first    int32
	deltas   []uint64 // packed
	width    uint
	minDelta int64
	n        int
	min, max int32
}

// NewDeltaBlock delta-encodes vals.
func NewDeltaBlock(vals []int32) *DeltaBlock {
	mn, mx := minMax(vals)
	b := &DeltaBlock{n: len(vals), min: mn, max: mx}
	if len(vals) == 0 {
		return b
	}
	b.first = vals[0]
	// Find delta range.
	minD, maxD := int64(0), int64(0)
	for i := 1; i < len(vals); i++ {
		d := int64(vals[i]) - int64(vals[i-1])
		if i == 1 || d < minD {
			minD = d
		}
		if i == 1 || d > maxD {
			maxD = d
		}
	}
	b.minDelta = minD
	width := uint(bits.Len64(uint64(maxD - minD)))
	if width == 0 {
		width = 1
	}
	b.width = width
	b.deltas = make([]uint64, (uint(len(vals)-1)*width+63)/64)
	for i := 1; i < len(vals); i++ {
		d := uint64(int64(vals[i]) - int64(vals[i-1]) - minD)
		bitPos := uint(i-1) * width
		w, off := bitPos/64, bitPos%64
		b.deltas[w] |= d << off
		if off+width > 64 {
			b.deltas[w+1] |= d >> (64 - off)
		}
	}
	return b
}

// DeltaWidth returns the packed width vals would need, for the chooser.
func DeltaWidth(vals []int32) uint {
	if len(vals) < 2 {
		return 1
	}
	minD, maxD := int64(vals[1])-int64(vals[0]), int64(vals[1])-int64(vals[0])
	for i := 2; i < len(vals); i++ {
		d := int64(vals[i]) - int64(vals[i-1])
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	w := uint(bits.Len64(uint64(maxD - minD)))
	if w == 0 {
		w = 1
	}
	return w
}

func (b *DeltaBlock) delta(i int) int64 {
	bitPos := uint(i) * b.width
	w, off := bitPos/64, bitPos%64
	u := b.deltas[w] >> off
	if off+b.width > 64 {
		u |= b.deltas[w+1] << (64 - off)
	}
	return int64(u&((1<<b.width)-1)) + b.minDelta
}

// Len implements IntBlock.
func (b *DeltaBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *DeltaBlock) Encoding() Encoding { return Delta }

// MinMax implements IntBlock.
func (b *DeltaBlock) MinMax() (int32, int32) { return b.min, b.max }

// AppendTo implements IntBlock.
func (b *DeltaBlock) AppendTo(dst []int32) []int32 {
	if b.n == 0 {
		return dst
	}
	v := int64(b.first)
	dst = append(dst, b.first)
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		dst = append(dst, int32(v))
	}
	return dst
}

// Get implements IntBlock. Delta blocks have no random access; Get decodes a
// prefix, so executors should prefer AppendTo or Gather. It exists to keep
// the interface total.
func (b *DeltaBlock) Get(i int) int32 {
	v := int64(b.first)
	for k := 0; k < i; k++ {
		v += b.delta(k)
	}
	return int32(v)
}

// Filter implements IntBlock by streaming the decoded sequence.
func (b *DeltaBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	if b.n == 0 {
		return
	}
	v := int64(b.first)
	if p.Match(int32(v)) {
		bm.Set(base)
	}
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		if p.Match(int32(v)) {
			bm.Set(base + i + 1)
		}
	}
}

// FilterSet implements IntBlock by streaming the decoded sequence through
// the membership test.
func (b *DeltaBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	if b.n == 0 {
		return
	}
	v := int64(b.first)
	if setContains(set, setMin, int32(v)) {
		bm.Set(base)
	}
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		if setContains(set, setMin, int32(v)) {
			bm.Set(base + i + 1)
		}
	}
}

// Gather implements IntBlock with one forward decode pass (idx is sorted).
func (b *DeltaBlock) Gather(idx []int32, dst []int32) []int32 {
	if len(idx) == 0 {
		return dst
	}
	v := int64(b.first)
	pos := int32(0)
	k := 0
	for k < len(idx) && idx[k] == 0 {
		dst = append(dst, b.first)
		k++
	}
	for i := 0; i < b.n-1 && k < len(idx); i++ {
		v += b.delta(i)
		pos = int32(i + 1)
		for k < len(idx) && idx[k] == pos {
			dst = append(dst, int32(v))
			k++
		}
	}
	return dst
}

// AggSelect implements IntBlock with one forward streaming pass — the same
// cost as Filter, since delta encoding has no random access to exploit.
func (b *DeltaBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	if b.n == 0 {
		return
	}
	v := int64(b.first)
	if sel == nil || sel.Get(base) {
		acc.observe(int32(v), 1)
	}
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		if sel == nil || sel.Get(base+i+1) {
			acc.observe(int32(v), 1)
		}
	}
}

// GatherSelect implements IntBlock with one forward streaming pass.
func (b *DeltaBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	if b.n == 0 {
		return dst
	}
	v := int64(b.first)
	if sel == nil || sel.Get(base) {
		dst = append(dst, b.first)
	}
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		if sel == nil || sel.Get(base+i+1) {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// FilterFunc implements IntBlock by streaming the decoded sequence.
func (b *DeltaBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	if b.n == 0 {
		return
	}
	v := int64(b.first)
	if match(int32(v)) {
		bm.Set(base)
	}
	for i := 0; i < b.n-1; i++ {
		v += b.delta(i)
		if match(int32(v)) {
			bm.Set(base + i + 1)
		}
	}
}

// CompressedBytes implements IntBlock.
func (b *DeltaBlock) CompressedBytes() int64 { return int64(len(b.deltas))*8 + 24 }
