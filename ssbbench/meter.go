package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/segstore"
	"repro/internal/server"
)

// sampler polls the heap (and, for ingest, the write store) during a
// measured segment.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	heapMax uint64
	pendMax int64
}

// startSampler starts polling; db, when set, is sampled for pending write
// store rows.
func startSampler(db *core.DB) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.heapMax = max(s.heapMax, sample[0].Value.Uint64())
			if db != nil {
				s.pendMax = max(s.pendMax, db.IngestStats().PendingRows)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops the sampler and waits for it.
func (s *sampler) end() {
	close(s.stop)
	<-s.done
}

// runtimeCounters reads the allocation and GC-cycle totals.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// meter accumulates a run's measured window, which is split into one
// segment per set-up: times and counters sum over the segments, and the
// write store's pending-row peak takes the maximum. The heap peak is kept
// per segment: a peak is set by whichever heavy requests happen to coincide
// with a collection, and the median over segments shrugs that off.
type meter struct {
	epoch   time.Time
	elapsed time.Duration
	// segs and heapPeaks hold each segment's length and peak heap.
	segs      []time.Duration
	heapPeaks []float64
	allocs    uint64
	gcs       uint64
	pendMax   int64
	// pool sums the buffer pool's counter deltas (Peak is the maximum);
	// cacheHits/cacheMisses the result cache's.
	pool                   segstore.PoolStats
	cacheHits, cacheMisses int64

	// The open segment.
	start       time.Time
	alloc0, gc0 uint64
	heap        *sampler
	stats0      server.Stats
	pool0       segstore.PoolStats
}

// begin opens a segment on h (nil for the paper workload), after a
// collection so each segment starts from the same heap. With ingest, the
// write store's pending rows are sampled too.
func (m *meter) begin(h *harness, ingest bool) {
	runtime.GC()
	var db *core.DB
	if h != nil {
		m.stats0 = h.srv.Stats()
		m.pool0 = h.sdb.SegmentStore().Pool().Stats()
		if ingest {
			db = h.sdb
		}
	}
	m.heap = startSampler(db)
	m.alloc0, m.gc0 = runtimeCounters()
	m.start = time.Now()
}

// end closes the open segment.
func (m *meter) end(h *harness) {
	d := time.Since(m.start)
	m.elapsed += d
	m.segs = append(m.segs, d)
	a, g := runtimeCounters()
	m.allocs += a - m.alloc0
	m.gcs += g - m.gc0
	m.heap.end()
	m.heapPeaks = append(m.heapPeaks, float64(m.heap.heapMax))
	m.pendMax = max(m.pendMax, m.heap.pendMax)
	if h == nil {
		return
	}
	st, p := h.srv.Stats(), h.sdb.SegmentStore().Pool().Stats()
	m.cacheHits += st.CacheHits - m.stats0.CacheHits
	m.cacheMisses += st.CacheMisses - m.stats0.CacheMisses
	m.pool.Hits += p.Hits - m.pool0.Hits
	m.pool.Misses += p.Misses - m.pool0.Misses
	m.pool.Evictions += p.Evictions - m.pool0.Evictions
	m.pool.BytesRead += p.BytesRead - m.pool0.BytesRead
	m.pool.Peak = max(m.pool.Peak, p.Peak)
}

// runtimeMetrics records the heap and runtime metrics; queries normalizes
// allocation.
func (m *meter) runtimeMetrics(out map[string]float64, queries int) {
	out["peak_heap_mb"] = median(m.heapPeaks) / 1e6
	if queries > 0 {
		out["runtime.alloc_kb_per_query"] = float64(m.allocs) / 1e3 / float64(queries)
	}
	out["runtime.gc_cycles_per_s"] = float64(m.gcs) / m.elapsed.Seconds()
}

// poolMetrics records the buffer pool's and result cache's work.
func (m *meter) poolMetrics(out map[string]float64, queries int) {
	if n := m.pool.Hits + m.pool.Misses; n > 0 {
		out["segstore.hit_ratio"] = float64(m.pool.Hits) / float64(n)
	}
	if queries > 0 {
		q := float64(queries)
		out["segstore.misses_per_query"] = float64(m.pool.Misses) / q
		out["segstore.evictions_per_query"] = float64(m.pool.Evictions) / q
		out["segstore.read_mb_per_query"] = float64(m.pool.BytesRead) / 1e6 / q
	}
	out["segstore.peak_mb"] = float64(m.pool.Peak) / 1e6
	if n := m.cacheHits + m.cacheMisses; n > 0 {
		out["server.cache_hit_ratio"] = float64(m.cacheHits) / float64(n)
	}
}
