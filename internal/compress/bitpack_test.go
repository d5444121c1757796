package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
)

// BenchmarkBitPackFilter times the bit-packed predicate kernels on one
// 64K-value block at the widths of the SSBM discount (4 bits), quantity
// (6 bits) and extendedprice (17 bits) domains: an interval at half
// selectivity, !=, a short and a longer gapped IN list, and a dense
// join-style FilterSet.
func BenchmarkBitPackFilter(b *testing.B) {
	for _, width := range []uint{4, 6, 17} {
		rng := rand.New(rand.NewSource(int64(width)))
		const lo = 1000
		hi := int32(lo + 1<<width - 1)
		vals := make([]int32, 1<<16)
		for i := range vals {
			vals[i] = lo + rng.Int31n(1<<width)
		}
		vals[0], vals[1] = lo, hi
		blk := NewBitPackBlock(vals)
		if blk.Width() != width {
			b.Fatalf("width %d, want %d", blk.Width(), width)
		}
		set := bitmap.New(1 << width)
		for i := 0; i < set.Len(); i++ {
			if rng.Intn(2) == 0 {
				set.Set(i)
			}
		}
		mid := lo + int32(1)<<(width-1)
		preds := []struct {
			name string
			p    Pred
		}{
			{"interval", Between(lo, mid-1)},
			{"ne", Pred{Op: OpNe, A: mid}},
			{"in3", In(lo+1, lo+3, lo+6)},
			{"in8", In(lo+1, lo+3, lo+5, lo+7, lo+9, lo+11, lo+13, lo+15)},
		}
		bm := bitmap.New(len(vals))
		for _, c := range preds {
			b.Run(fmt.Sprintf("w=%d/%s", width, c.name), func(b *testing.B) {
				b.SetBytes(int64(len(vals)) * 4)
				for i := 0; i < b.N; i++ {
					bm.Reset()
					blk.Filter(c.p, 0, bm)
				}
			})
		}
		b.Run(fmt.Sprintf("w=%d/filterset", width), func(b *testing.B) {
			b.SetBytes(int64(len(vals)) * 4)
			for i := 0; i < b.N; i++ {
				bm.Reset()
				blk.FilterSet(set, lo, 0, bm)
			}
		})
	}
}
