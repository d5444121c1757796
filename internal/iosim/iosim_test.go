package iosim

import (
	"reflect"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var s *Stats
	s.Read(100)
	s.AddSeeks(1)
	s.Add(Stats{BytesRead: 5})
	s.BlockFetched()
	s.BlockPruned()
	s.BlockCovered()
	s.Decoded(64)
	s.KernelFold()
	s.Gathered()
	s.Reset() // must not panic
}

func TestAccumulation(t *testing.T) {
	var s Stats
	s.Read(1000)
	s.Read(500)
	s.AddSeeks(3)
	s.Add(Stats{BytesRead: 100, Seeks: 2})
	if s.BytesRead != 1600 || s.Seeks != 5 {
		t.Fatalf("got %+v", s)
	}
	s.Reset()
	if s.BytesRead != 0 || s.Seeks != 0 {
		t.Fatalf("after reset: %+v", s)
	}
}

// TestBlockCounters pins the trace-feeding counters through the direct
// methods and Add — the two paths the engines use.
func TestBlockCounters(t *testing.T) {
	var s Stats
	s.BlockFetched()
	s.BlockFetched()
	s.BlockPruned()
	s.BlockCovered()
	s.Decoded(4096)
	s.KernelFold()
	s.Gathered()
	s.Gathered()
	want := Stats{BlocksFetched: 2, BlocksPruned: 1, BlocksCovered: 1, DecodedBytes: 4096, KernelFolds: 1, Gathers: 2}
	if s != want {
		t.Fatalf("got %+v, want %+v", s, want)
	}
	// Worker merge: Add must carry every counter, so whole-struct equality
	// across worker counts (the differential harness's invariant) holds.
	var merged Stats
	merged.Add(s)
	merged.Add(s)
	if merged.BlocksFetched != 4 || merged.DecodedBytes != 8192 || merged.Gathers != 4 {
		t.Fatalf("merge: %+v", merged)
	}
}

// TestAddSubCoverEveryField gives every Stats field a distinct non-zero
// value, so a counter added to the struct but forgotten in Add or Sub
// fails here instead of silently dropping out of worker merges, shared
// totals and trace stage deltas.
func TestAddSubCoverEveryField(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	doubled := s
	doubled.Add(s)
	dv := reflect.ValueOf(doubled)
	for i := 0; i < v.NumField(); i++ {
		if got, want := dv.Field(i).Int(), 2*int64(i+1); got != want {
			t.Errorf("Add: field %s = %d, want %d", v.Type().Field(i).Name, got, want)
		}
	}
	if d := s.Sub(s); d != (Stats{}) {
		t.Errorf("Sub of itself = %+v, want zero", d)
	}
	if d := doubled.Sub(s); d != s {
		t.Errorf("Sub: doubled - s = %+v, want %+v", d, s)
	}
}

func TestModelTime(t *testing.T) {
	m := Model{SeqMBPerSec: 100, SeekMillis: 10}
	// 100 MB at 100 MB/s = 1s; 10 seeks at 10ms = 100ms.
	d := m.Time(Stats{BytesRead: 100e6, Seeks: 10})
	want := 1100 * time.Millisecond
	if d < want-time.Millisecond || d > want+time.Millisecond {
		t.Fatalf("Time = %v, want ~%v", d, want)
	}
	if (Model{}).Time(Stats{BytesRead: 1 << 40}) != 0 {
		t.Fatal("zero model should cost nothing")
	}
}

func TestPaperDiskOrdering(t *testing.T) {
	// Reading the whole 17-column fact table must cost ~3x more than a
	// 6-column materialized view at the paper's bandwidth.
	full := PaperDisk.Time(Stats{BytesRead: 6e9})
	mv := PaperDisk.Time(Stats{BytesRead: 2e9})
	if full <= mv || float64(full)/float64(mv) < 2.5 {
		t.Fatalf("full=%v mv=%v: expected ~3x", full, mv)
	}
}
