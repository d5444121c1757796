package compress

import (
	"encoding/binary"
	"math/bits"
	"sort"

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

// get reads code i with an unconditional two-word read: the second word is
// clamped to the last one, and a field that does not straddle contributes
// nothing from it (the shift pair moves those bits past the mask, or out of
// the word entirely when off == 0).
func (b *BitPackBlock) get(i int) uint64 {
	bitPos := uint(i) * b.width
	w, off := bitPos/64, bitPos%64
	u := b.words[w]>>off | b.words[min(w+1, uint(len(b.words)-1))]<<1<<(^off&63)
	return u & (1<<b.width - 1)
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

// Filter implements IntBlock. The predicate is rebased into code space once,
// then each 64-code chunk yields one match word that is ORed into bm with a
// single store (blocks are 64-aligned at every engine call site; other bases
// take a two-word OR). Per code the kernels do a fixed-shape field read and a
// subtract-and-mask compare: no branch, no Pred.Match, no search.
func (b *BitPackBlock) Filter(p Pred, base int, bm *bitmap.Bitmap) {
	top := int64(b.max) - int64(b.min) // largest code in the block
	if lo, hi, ok := p.Bounds(); ok {
		cl := max(int64(lo)-int64(b.min), 0)
		ch := min(int64(hi)-int64(b.min), top)
		switch {
		case cl > ch: // an empty interval (lo > hi), or one missing the block
			return
		case cl == 0 && ch == top:
			bm.SetRange(base, base+b.n)
			return
		}
		b.scan(base, bm, &codeTest{kind: testInterval, lo: uint64(cl), n: uint64(ch-cl) + 1})
		return
	}
	switch p.Op {
	case OpNe:
		if p.A < b.min || p.A > b.max {
			bm.SetRange(base, base+b.n)
			return
		}
		b.scan(base, bm, &codeTest{kind: testEq, lo: uint64(int64(p.A) - int64(b.min)), invert: true})
	case OpIn:
		b.filterIn(p.Set, base, bm)
	}
}

// maxInBitmapBits bounds the code-space bitmap an IN list is turned into
// (128 KB). A list spread wider than that, which only blocks wider than 20
// bits can hold, takes one equality pass per code instead.
const maxInBitmapBits = 1 << 20

// filterIn is Filter for an IN list with gaps (set sorted ascending): the
// codes inside the block become a bitmap over [first code, last code].
func (b *BitPackBlock) filterIn(set []int32, base int, bm *bitmap.Bitmap) {
	set = set[sort.Search(len(set), func(i int) bool { return set[i] >= b.min }):]
	set = set[:sort.Search(len(set), func(i int) bool { return set[i] > b.max })]
	if len(set) == 0 {
		return
	}
	code := func(v int32) uint64 { return uint64(int64(v) - int64(b.min)) }
	first, last := code(set[0]), code(set[len(set)-1])
	if last-first >= maxInBitmapBits {
		for i, v := range set {
			if i == 0 || v != set[i-1] {
				b.scan(base, bm, &codeTest{kind: testEq, lo: code(v)})
			}
		}
		return
	}
	words := make([]uint64, (last-first)/64+1)
	for _, v := range set {
		k := code(v) - first
		words[k/64] |= 1 << (k % 64)
	}
	b.scan(base, bm, &codeTest{kind: testWords, words: words, lo: first, n: last - first + 1})
}

// FilterSet implements IntBlock. The set window is rebased into code space
// once; each code is then one unsigned window compare and one bit read.
func (b *BitPackBlock) FilterSet(set *bitmap.Bitmap, setMin int32, base int, bm *bitmap.Bitmap) {
	if b.max < setMin || int64(b.min) > int64(setMin)+int64(set.Len())-1 {
		return
	}
	b.scan(base, bm, &codeTest{kind: testWords, words: set.Words(), n: uint64(set.Len()), lo: uint64(int64(setMin) - int64(b.min))})
}

// codeTest is a predicate rebased into a block's code space, in one of the
// shapes the chunk kernels evaluate without branching.
type codeTest struct {
	kind   testKind
	lo, n  uint64   // testInterval: lo <= c < lo+n; testEq: c == lo; testWords: c-lo < n and bit c-lo of words
	words  []uint64 // testWords: the window bitmap
	invert bool     // complement the match (!= as inverted ==)
}

type testKind uint8

const (
	testInterval testKind = iota
	testEq
	testWords
)

// signBit is where the kernels' subtractions leave the match bit: x-1 has
// it set iff x == 0, for any code-sized x. The match words are built by
// shifting it down, so code j of a chunk ends on bit j.
const signBit = 1 << 63

// match returns the match word of one chunk: bit j is set when code j
// passes the test. Bits for codes past the block end are garbage; scan
// masks them.
func (t *codeTest) match(c *chunk, width uint, mask uint64) (m uint64) {
	switch t.kind {
	case testInterval:
		// Code u matches iff uint32(u-lo) < n: codes below lo wrap to at
		// least 2^32-lo, past the interval. The compare is a 64-bit
		// subtraction whose sign bit is the match bit.
		lo, n := t.lo, t.n
		for j := uint(0); j < 64; j++ {
			d := uint64(uint32(c.code(j, width)&mask-lo)) - n
			m = m>>1 | d&signBit
		}
	case testEq:
		a := t.lo
		for j := uint(0); j < 64; j++ {
			m = m>>1 | (c.code(j, width)&mask^a-1)&signBit
		}
	case testWords:
		// Codes outside the window (c-lo wraps or is >= n) borrow nothing
		// from the range compare and read bit 0, which the borrow masks.
		words, lo, n := t.words, t.lo, t.n
		for j := uint(0); j < 64; j++ {
			k := c.code(j, width)&mask - lo
			_, in := bits.Sub64(k, n, 0)
			k &= -in
			m = m>>1 | words[k/64]>>(k%64)&in<<63
		}
	}
	if t.invert {
		m = ^m
	}
	return m
}

// chunk holds the words of one 64-code chunk as little-endian bytes. A
// chunk of width-bit codes spans exactly width words, so code j starts at
// bit j*width and is read with one 8-byte load and one shift, with no
// cursor carried between codes. The array is padded so the load at any
// code's first byte stays inside it (widths up to 32 need at most 260
// bytes), and the byte index is masked so the compiler can see that.
type chunk [33 * 8]byte

// load copies a chunk's words (at most 32) into c.
func (c *chunk) load(ws []uint64) {
	for i, w := range ws {
		binary.LittleEndian.PutUint64(c[i*8%256:], w)
	}
}

// code returns code j of the chunk in its low bits; the caller masks it to
// the block width.
func (c *chunk) code(j, width uint) uint64 {
	bitPos := j * width
	k := bitPos / 8 % 256
	return binary.LittleEndian.Uint64(c[k:k+8:k+8]) >> (bitPos % 8)
}

// scan ORs the match word of every 64-code chunk into bm at base. Bits for
// codes past the block end are masked off, so nothing at or past base+Len
// is ever set. The last chunk may load fewer words than width; the bytes
// it leaves from the previous chunk feed only masked codes.
func (b *BitPackBlock) scan(base int, bm *bitmap.Bitmap, t *codeTest) {
	var c chunk
	width, mask := b.width, uint64(1)<<b.width-1
	for start := 0; start < b.n; start += 64 {
		w := start / 64 * int(width)
		c.load(b.words[w:min(w+int(width), len(b.words))])
		m := t.match(&c, width, mask)
		if rem := b.n - start; rem < 64 {
			m &= 1<<uint(rem) - 1
		}
		bm.OrWord(base+start, m)
	}
}

// Gather implements IntBlock: one branch-free field read per index.
func (b *BitPackBlock) Gather(idx []int32, dst []int32) []int32 {
	for _, i := range idx {
		dst = append(dst, int32(int64(b.min)+int64(b.get(int(i)))))
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
