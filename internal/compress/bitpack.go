package compress

import (
	"math/bits"

	"repro/internal/bitmap"
)

// BitPackBlock stores values as fixed-width bit fields offset from the block
// minimum. A block of discounts 0..10 packs into 4 bits/value instead of 32.
type BitPackBlock struct {
	words    []uint64
	width    uint // bits per value, 1..32
	n        int
	min, max int32
}

// NewBitPackBlock packs vals using the narrowest width that covers
// max(vals)-min(vals).
func NewBitPackBlock(vals []int32) *BitPackBlock {
	mn, mx := minMax(vals)
	span := uint64(int64(mx) - int64(mn))
	width := uint(bits.Len64(span))
	if width == 0 {
		width = 1
	}
	b := &BitPackBlock{
		words: make([]uint64, (uint(len(vals))*width+63)/64),
		width: width,
		n:     len(vals),
		min:   mn,
		max:   mx,
	}
	for i, v := range vals {
		b.put(i, uint64(int64(v)-int64(mn)))
	}
	return b
}

func (b *BitPackBlock) put(i int, u uint64) {
	bitPos := uint(i) * b.width
	w, off := bitPos/64, bitPos%64
	b.words[w] |= u << off
	if off+b.width > 64 {
		b.words[w+1] |= u >> (64 - off)
	}
}

func (b *BitPackBlock) get(i int) uint64 {
	bitPos := uint(i) * b.width
	w, off := bitPos/64, bitPos%64
	u := b.words[w] >> off
	if off+b.width > 64 {
		u |= b.words[w+1] << (64 - off)
	}
	return u & ((1 << b.width) - 1)
}

// Len implements IntBlock.
func (b *BitPackBlock) Len() int { return b.n }

// Encoding implements IntBlock.
func (b *BitPackBlock) Encoding() Encoding { return BitPack }

// MinMax implements IntBlock.
func (b *BitPackBlock) MinMax() (int32, int32) { return b.min, b.max }

// Width returns the bits used per value (diagnostics).
func (b *BitPackBlock) Width() uint { return b.width }

// AppendTo implements IntBlock.
func (b *BitPackBlock) AppendTo(dst []int32) []int32 {
	for i := 0; i < b.n; i++ {
		dst = append(dst, int32(int64(b.min)+int64(b.get(i))))
	}
	return dst
}

// Get implements IntBlock.
func (b *BitPackBlock) Get(i int) int32 { return int32(int64(b.min) + int64(b.get(i))) }

// Filter implements IntBlock. The predicate is rebased into code space so
// the inner loop compares packed codes without reconstructing values; the
// word cursor advances incrementally rather than recomputing the bit
// position per value.
func (b *BitPackBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	if lo, hi, ok := p.Bounds(); ok {
		// Rebase interval to code space, clamping at block bounds.
		cl := int64(lo) - int64(b.min)
		ch := int64(hi) - int64(b.min)
		if ch < 0 || cl > int64(b.max)-int64(b.min) {
			return
		}
		if cl < 0 {
			cl = 0
		}
		ulo, uhi := uint64(cl), uint64(ch)
		mask := uint64(1)<<b.width - 1
		w, off := 0, uint(0)
		for i := 0; i < b.n; i++ {
			u := b.words[w] >> off
			if off+b.width > 64 {
				u |= b.words[w+1] << (64 - off)
			}
			off += b.width
			if off >= 64 {
				off -= 64
				w++
			}
			if c := u & mask; c >= ulo && c <= uhi {
				bm.Set(base + i)
			}
		}
		return
	}
	for i := 0; i < b.n; i++ {
		if p.Match(b.Get(i)) {
			bm.Set(base + i)
		}
	}
}

// FilterSet implements IntBlock. The set window is rebased into code space
// once, so the inner loop tests packed codes without reconstructing values.
func (b *BitPackBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	if b.max < setMin || int64(b.min) > int64(setMin)+int64(set.Len())-1 {
		return
	}
	rebase := int64(b.min) - int64(setMin)
	n := int64(set.Len())
	mask := uint64(1)<<b.width - 1
	w, off := 0, uint(0)
	for i := 0; i < b.n; i++ {
		u := b.words[w] >> off
		if off+b.width > 64 {
			u |= b.words[w+1] << (64 - off)
		}
		off += b.width
		if off >= 64 {
			off -= 64
			w++
		}
		if k := int64(u&mask) + rebase; k >= 0 && k < n && set.Get(int(k)) {
			bm.Set(base + i)
		}
	}
}

// Gather implements IntBlock.
func (b *BitPackBlock) Gather(idx []int32, dst []int32) []int32 {
	for _, i := range idx {
		dst = append(dst, b.Get(int(i)))
	}
	return dst
}

// AggSelect implements IntBlock. Codes are accumulated in code space with
// the streaming word cursor and widened exactly once at the end
// (sum = count*min + sum(codes)), so the hot loop is shift/mask/popcount
// with no value reconstruction.
func (b *BitPackBlock) AggSelect(sel *bitmap.Bitmap, base int, acc *AggAcc) {
	var codeSum uint64
	var count int64
	cMin, cMax := uint64(1)<<63, uint64(0)
	if sel == nil {
		mask := uint64(1)<<b.width - 1
		w, off := 0, uint(0)
		for i := 0; i < b.n; i++ {
			u := b.words[w] >> off
			if off+b.width > 64 {
				u |= b.words[w+1] << (64 - off)
			}
			off += b.width
			if off >= 64 {
				off -= 64
				w++
			}
			c := u & mask
			codeSum += c
			count++
			if c < cMin {
				cMin = c
			}
			if c > cMax {
				cMax = c
			}
		}
	} else {
		// Partial selections walk the selection words directly — one
		// trailing-zeros step per selected position, O(selected) random
		// accesses (fields are fixed-width, so position i is bit i*width).
		for pos := range selWords(sel, base, b.n) {
			c := b.get(pos)
			codeSum += c
			count++
			if c < cMin {
				cMin = c
			}
			if c > cMax {
				cMax = c
			}
		}
	}
	if count == 0 {
		return
	}
	acc.Sum += count*int64(b.min) + int64(codeSum)
	acc.Count += count
	if v := int64(b.min) + int64(cMin); v < acc.Min {
		acc.Min = v
	}
	if v := int64(b.min) + int64(cMax); v > acc.Max {
		acc.Max = v
	}
}

// GatherSelect implements IntBlock: full blocks stream the word cursor,
// partial selections hop set bits with the random-access cursor.
func (b *BitPackBlock) GatherSelect(sel *bitmap.Bitmap, base int, dst []int32) []int32 {
	if sel == nil {
		mask := uint64(1)<<b.width - 1
		w, off := 0, uint(0)
		for i := 0; i < b.n; i++ {
			u := b.words[w] >> off
			if off+b.width > 64 {
				u |= b.words[w+1] << (64 - off)
			}
			off += b.width
			if off >= 64 {
				off -= 64
				w++
			}
			dst = append(dst, int32(int64(b.min)+int64(u&mask)))
		}
	} else {
		for pos := range selWords(sel, base, b.n) {
			dst = append(dst, int32(int64(b.min)+int64(b.get(pos))))
		}
	}
	return dst
}

// FilterFunc implements IntBlock: streaming decode, one callback per value.
func (b *BitPackBlock) FilterFunc(match func(int32) bool, base int, bm *bitmap.Bitmap) {
	mask := uint64(1)<<b.width - 1
	w, off := 0, uint(0)
	for i := 0; i < b.n; i++ {
		u := b.words[w] >> off
		if off+b.width > 64 {
			u |= b.words[w+1] << (64 - off)
		}
		off += b.width
		if off >= 64 {
			off -= 64
			w++
		}
		if match(int32(int64(b.min) + int64(u&mask))) {
			bm.Set(base + i)
		}
	}
}

// CompressedBytes implements IntBlock.
func (b *BitPackBlock) CompressedBytes() int64 { return int64(len(b.words))*8 + 16 }
