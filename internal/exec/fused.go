package exec

import (
	"context"
	"sync"
	"time"

	"repro/internal/bitmap"
	"repro/internal/colstore"
	"repro/internal/compress"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
	"repro/internal/vector"
)

// This file implements the fused, block-at-a-time, morsel-parallel pipeline
// (Config.Fused). The per-probe pipeline in run.go materializes a full
// fact-table bitmap per probe and funnels every membership probe through a
// map lookup per fact row; the fused pipeline instead scans each 64K fact
// block exactly once against all predicates and probes:
//
//  1. Probes run in planProbes order with per-block min/max
//     short-circuiting: a block a probe cannot match is abandoned before
//     any I/O is charged, and a block a probe fully covers is passed
//     through without decoding.
//  2. While the selection is still the whole block, probes execute
//     directly on the compressed representation — IntBlock.Filter for
//     value predicates and IntBlock.FilterSet for dense-bitmap membership
//     (RLE tests one bit per run, bit-vector encoding ORs whole value
//     bitmaps) — into a block-local selection bitmap, word-ANDed into the
//     running selection while it stays dense.
//  3. Once the selection is sparse, probes switch to gather-and-test over
//     the explicit survivor index list.
//  4. Group-by codes (direct array extraction; date keys resolve through a
//     dense key->position array rather than a map) and aggregate inputs
//     are gathered for survivors only and accumulated into per-worker
//     dense aggregation arrays inside the same pass.
//
// Morsel parallelism: workers own disjoint blocks (bi % workers == w) with
// private scratch buffers, partial aggregates, and I/O stats, so the scan
// needs no synchronization. Partials merge by commutative int64 addition
// and bitmap OR, so results and I/O accounting are bit-identical for every
// worker count.

// fusedWorkerDenseLimit caps the composite group space for which every
// worker gets a private dense aggregation array. Above it the fused scan
// degrades to one worker rather than multiplying a huge array per worker.
const fusedWorkerDenseLimit = 1 << 20

// wholeBlockCheap reports whether filtering the entire block directly on
// its compressed representation is cheaper than gathering at the current
// survivor list: true for run-length and bit-vector blocks, whose Filter
// is O(runs) / O(distinct values) word-level work rather than O(block
// length) per-value decode. It takes the encoding tag (available from the
// zone map without loading the block) so the decision costs no I/O.
func wholeBlockCheap(enc compress.Encoding) bool {
	switch enc {
	case compress.RLE, compress.BitVec:
		return true
	default:
		return false
	}
}

// fusedPlan is the per-query state shared (read-only) by all workers.
type fusedPlan struct {
	probes  []*factProbe
	exs     []*fusedExtractor
	strides []int64
	specs   []ssb.AggSpec
	aggCols []*colstore.Column // distinct aggregate input columns
	ia, ib  []int              // per-spec operand indexes into aggCols (-1 unused)
	nAggs   int
	grouped bool
	numRows int
	del     *bitmap.Bitmap // sealed-side deletion vector (nil = none)
	// kernels enables the encoding-native aggregation/selection kernels
	// (Config.KernelsActive): the selection stays bitmap-shaped through
	// dense non-RLE probes, deletion masking is word-wise, and measure
	// extraction runs GatherSelect/AggSelect directly on compressed
	// blocks. kernelable additionally marks plans whose every aggregate
	// folds from per-column sum/count/min/max alone, so ungrouped blocks
	// aggregate without materializing a single value.
	kernels    bool
	kernelable bool
	// traced turns on per-stage counter recording in every worker;
	// nStages is len(probes)+1 (one stage per probe plus the combined
	// mask/extract/aggregate tail). Untraced runs never touch the stage
	// arrays — fusedBlock tests ws.stages once per recording site.
	traced  bool
	nStages int
}

// fusedExtractor resolves fact FK values to group-by attribute codes by
// array indexing: codes[fk] when keys are reassigned positions, or
// codes[posDense[fk-keyMin]] for the date dimension, whose yyyymmdd keys
// resolve through the DB's cached dense key->position array.
type fusedExtractor struct {
	ex       *groupExtractor
	fkCol    *colstore.Column
	codes    []int32
	posDense []int32 // nil for position-keyed dimensions
	keyMin   int32
}

// newFusedExtractor prepares dense extraction state for one group column.
// The fused pipeline always extracts by direct array indexing, so the
// underlying extractor is built with the invisible-join layout regardless
// of cfg (the fused flag subsumes the ablation).
func (db *DB) newFusedExtractor(g ssb.GroupCol, cfg Config, st *iosim.Stats) *fusedExtractor {
	ij := cfg
	ij.InvisibleJoin = true
	ex := db.newGroupExtractor(g, ij, st)
	fx := &fusedExtractor{ex: ex, fkCol: ex.fkCol, codes: ex.attr}
	if ex.isDate {
		fx.posDense = db.datePosDense
		fx.keyMin = db.dateKeyMin
	}
	return fx
}

// fusedGroupSpace bounds the composite group cardinality from catalog
// metadata only (dictionary sizes, block min/max), without charging I/O, so
// the executor can bail to the hash-aggregation fallback before any probe
// work happens.
func (db *DB) fusedGroupSpace(q *ssb.Query) int64 {
	total := int64(1)
	for _, g := range q.GroupBy {
		col := db.Dims[g.Dim].MustColumn(g.Col)
		var card int64
		if col.Dict != nil {
			card = int64(col.Dict.Size())
		} else {
			mn, mx := col.MinMax()
			card = int64(mx) - int64(mn) + 1
		}
		if card < 1 {
			card = 1
		}
		total *= card
		if total > denseLimit {
			return total
		}
	}
	return total
}

// fusedWorkersFor returns the worker count the fused scan actually uses:
// cfgWorkers clamped to at least one, degraded to one when the composite
// group space makes per-worker dense arrays too costly, and capped at the
// number of fact blocks.
func fusedWorkersFor(cfgWorkers int, space int64, nb int) int {
	workers := cfgWorkers
	if workers < 1 {
		workers = 1
	}
	if space > fusedWorkerDenseLimit {
		workers = 1
	}
	if nb > 0 && nb < workers {
		workers = nb
	}
	return workers
}

// fusedWorkers is the self-contained form of fusedWorkersFor, for Explain.
func (db *DB) fusedWorkers(q *ssb.Query, cfg Config) int {
	nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
	return fusedWorkersFor(cfg.Workers, db.fusedGroupSpace(q), nb)
}

// fusedWorker is one morsel worker's private state: scratch buffers reused
// across blocks, partial aggregates, and I/O accounting.
type fusedWorker struct {
	st  iosim.Stats
	sel *bitmap.Bitmap // block-local selection vector
	tmp *bitmap.Bitmap // per-probe filter output, ANDed into sel

	idx   []int32           // survivor block-local indexes
	vals  []int32           // probe gather scratch
	mvals [][]int32         // aggregate input gather scratch, one per distinct column
	fkv   []int32           // FK gather scratch
	gidx  []int64           // composite group index per survivor
	accs  []compress.AggAcc // per-column kernel accumulators, one per distinct column

	// sums holds nAggs cells per composite group index; seen marks
	// populated groups (shared by every aggregate of the group).
	sums  []int64
	seen  *bitmap.Bitmap
	nAggs int
	// aggCells / rows accumulate the ungrouped aggregates.
	aggCells []int64
	rows     int64
	// stages holds per-stage trace counters when the plan is traced
	// (nil otherwise); merged across workers by addition, so traced
	// totals are worker-count invariant like everything else here.
	stages []obs.StageCounters
}

// getFusedWorker takes a worker from the DB pool (or makes one) and sizes
// its aggregation arrays for the plan's composite group space (nAggs cells
// per group). Pooled workers were scrubbed on release, so reused arrays are
// already all-zero; newly seen groups are initialized to the aggregate
// identities before the first Combine.
func (db *DB) getFusedWorker(plan *fusedPlan, total int64) *fusedWorker {
	ws, _ := db.fusedPool.Get().(*fusedWorker)
	if ws == nil {
		ws = &fusedWorker{
			sel: bitmap.New(colstore.BlockSize),
			tmp: bitmap.New(colstore.BlockSize),
		}
	}
	ws.st = iosim.Stats{}
	ws.nAggs = plan.nAggs
	ws.rows = 0
	if plan.traced {
		if cap(ws.stages) < plan.nStages {
			ws.stages = make([]obs.StageCounters, plan.nStages)
		}
		ws.stages = ws.stages[:plan.nStages]
		for i := range ws.stages {
			ws.stages[i] = obs.StageCounters{}
		}
	} else {
		ws.stages = nil
	}
	if cap(ws.aggCells) < plan.nAggs {
		ws.aggCells = make([]int64, plan.nAggs)
	}
	ws.aggCells = ws.aggCells[:plan.nAggs]
	ssb.InitCells(plan.specs, ws.aggCells)
	for len(ws.mvals) < len(plan.aggCols) {
		ws.mvals = append(ws.mvals, nil)
	}
	if cap(ws.accs) < len(plan.aggCols) {
		ws.accs = make([]compress.AggAcc, len(plan.aggCols))
	}
	ws.accs = ws.accs[:len(plan.aggCols)]
	if plan.grouped {
		cells := total * int64(plan.nAggs)
		if int64(cap(ws.sums)) < cells {
			ws.sums = make([]int64, cells)
		}
		ws.sums = ws.sums[:cells]
		if ws.seen == nil || ws.seen.Len() < int(total) {
			ws.seen = bitmap.New(int(total))
		}
	}
	return ws
}

// putFusedWorker scrubs the worker's aggregation state — zeroing only the
// cells its seen bitmap marks, which is what makes pooling cheaper than a
// fresh make per query — and returns it to the pool. The merge step keeps
// the scrub sound for worker 0 too: its seen bitmap holds the union of all
// workers' cells by the time results are assembled.
func (db *DB) putFusedWorker(ws *fusedWorker) {
	if ws.seen != nil {
		nAggs := ws.nAggs
		ws.seen.ForEach(func(i int) {
			for k := 0; k < nAggs; k++ {
				ws.sums[i*nAggs+k] = 0
			}
		})
		ws.seen.Reset()
	}
	db.fusedPool.Put(ws)
}

// runFused executes the late-materialized plan as one fused scan.
func (db *DB) runFused(ctx context.Context, q *ssb.Query, cfg Config, st *iosim.Stats, del *bitmap.Bitmap, tr *obs.Trace) *ssb.Result {
	space := db.fusedGroupSpace(q)
	if space > denseLimit {
		// Huge composite group spaces use the per-probe pipeline's hash
		// aggregation fallback.
		plain := cfg
		plain.Fused = false
		return db.runLateMat(ctx, q, plain, st, del, tr)
	}
	if tr != nil {
		tr.Engine = "fused"
	}
	rec := newStageRec(tr, st)

	plan := &fusedPlan{
		probes:  db.planProbes(q, cfg, st),
		specs:   q.AggSpecs(),
		grouped: len(q.GroupBy) > 0,
		numRows: db.numRows,
		del:     del,
		kernels: cfg.KernelsActive(),
	}
	plan.nAggs = len(plan.specs)
	var aggColNames []string
	aggColNames, plan.ia, plan.ib = ssb.AggInputs(plan.specs)
	plan.kernelable = kernelableSpecs(plan.specs, plan.ia, plan.ib)
	plan.aggCols = make([]*colstore.Column, len(aggColNames))
	for i, name := range aggColNames {
		plan.aggCols[i] = db.Fact.MustColumn(name)
	}
	gexs := make([]*groupExtractor, len(q.GroupBy))
	for i, g := range q.GroupBy {
		fx := db.newFusedExtractor(g, cfg, st)
		plan.exs = append(plan.exs, fx)
		gexs[i] = fx.ex
	}
	var total int64
	plan.strides, total = groupStrides(gexs)

	rec.rec("plan", "", st, 0, 0, 0)

	nb := (db.numRows + colstore.BlockSize - 1) / colstore.BlockSize
	if nb == 0 {
		return emptyResult(q)
	}
	workers := fusedWorkersFor(cfg.Workers, space, nb)
	if tr != nil {
		tr.Workers = workers
		plan.traced = true
		plan.nStages = len(plan.probes) + 1
	}

	states := make([]*fusedWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws := db.getFusedWorker(plan, total)
		states[w] = ws
		wg.Add(1)
		go func(w int, ws *fusedWorker) {
			defer wg.Done()
			for bi := w; bi < nb; bi += workers {
				// Cancellation is checked between blocks: a block never
				// holds a pin across the check, so an abandoned query
				// leaves zero pinned frames behind.
				if ctx.Err() != nil {
					return
				}
				fusedBlock(bi, plan, ws)
			}
		}(w, ws)
	}
	wg.Wait()

	if ctx.Err() != nil {
		// Abandoned mid-scan: recycle the workers (the scrub only touches
		// cells their seen bitmaps mark, partial or not) and let RunCtx
		// surface ctx.Err; the partial aggregates are never merged.
		for _, ws := range states {
			db.putFusedWorker(ws)
		}
		return emptyResult(q)
	}

	if tr != nil {
		// Per-worker stage counters merge by addition (deterministic for
		// any worker count); per-probe wall is summed work time across
		// workers, which can exceed the query's elapsed wall clock.
		merged := make([]obs.StageCounters, plan.nStages)
		for _, ws := range states {
			for si := range ws.stages {
				merged[si].Add(ws.stages[si])
			}
		}
		for pi, p := range plan.probes {
			tr.AddStage("probe", probeDetail(p), merged[pi])
		}
		tr.AddStage("extract+aggregate", "", merged[len(plan.probes)])
	}

	if !plan.grouped {
		cells := make([]int64, plan.nAggs)
		ssb.InitCells(plan.specs, cells)
		var rows int64
		for _, ws := range states {
			st.Add(ws.st)
			rows += ws.rows
			for k, s := range plan.specs {
				cells[k] = s.Merge(cells[k], ws.aggCells[k])
			}
			db.putFusedWorker(ws)
		}
		return ssb.NewResult(q.ID, []ssb.ResultRow{ssb.MakeRow(nil, ssb.FinalizeCells(plan.specs, cells, rows))})
	}
	// Deterministic merge into worker 0: per-worker partials combine by
	// the aggregates' commutative merge (addition for SUM/COUNT, min/max
	// otherwise), and worker 0's seen bitmap becomes the union, so worker
	// count never shows through in results or stats.
	nAggs := plan.nAggs
	sums, seen := states[0].sums, states[0].seen
	st.Add(states[0].st)
	for _, ws := range states[1:] {
		st.Add(ws.st)
		ws.seen.ForEach(func(i int) {
			base := i * nAggs
			if seen.Get(i) {
				for k, s := range plan.specs {
					sums[base+k] = s.Merge(sums[base+k], ws.sums[base+k])
				}
			} else {
				seen.Set(i)
				copy(sums[base:base+nAggs], ws.sums[base:base+nAggs])
			}
		})
	}
	rows := denseGroupRows(gexs, plan.strides, plan.specs, sums, seen)
	for _, ws := range states {
		db.putFusedWorker(ws)
	}
	return ssb.NewResult(q.ID, rows)
}

// foldsBlocks reports whether surviving blocks end in a decode-free
// AggSelect fold (no gather of aggregate inputs), which is when keeping a
// dense selection bitmap-shaped through the probe chain pays for itself.
func (plan *fusedPlan) foldsBlocks() bool {
	return plan.kernels && plan.kernelable && !plan.grouped
}

// fusedBlock runs the whole fused pipeline — probes, extraction,
// aggregation — over one block.
func fusedBlock(bi int, plan *fusedPlan, ws *fusedWorker) {
	blkBase := bi * colstore.BlockSize
	blkLen := plan.numRows - blkBase
	if blkLen > colstore.BlockSize {
		blkLen = colstore.BlockSize
	}

	// Selection state: starts as the whole block, narrows to a bitmap
	// while dense, then to an explicit index list.
	full, onBitmap := true, false
	ws.idx = ws.idx[:0]

	// curCount is only evaluated on the traced path (ws.stages != nil):
	// the bitmap popcount it costs never runs untraced.
	curCount := func() int64 {
		switch {
		case full:
			return int64(blkLen)
		case onBitmap:
			return int64(ws.sel.Count())
		default:
			return int64(len(ws.idx))
		}
	}

	//lint:ignore ctxloop per-block probe loop over one already-acquired block bi, bounded by the plan's probe count; the morsel loop driving it checks ctx once per block
	for pi, p := range plan.probes {
		// Zone-map consultation only: the block is not acquired (for
		// segment-backed columns, not even read from disk) unless the
		// probe actually has to examine values.
		mn, mx := p.col.BlockMinMax(bi)
		if !p.mayMatch(mn, mx) {
			ws.st.BlockPruned()
			if ws.stages != nil {
				sc := &ws.stages[pi]
				sc.RowsIn += curCount()
				sc.BlockPruned()
			}
			return // min/max short-circuit: block has no survivors
		}
		if p.coversBlock(mn, mx) {
			ws.st.BlockCovered()
			if ws.stages != nil {
				n := curCount()
				sc := &ws.stages[pi]
				sc.RowsIn += n
				sc.RowsOut += n
				sc.BlockCovered()
			}
			continue // every value survives: no decode, no I/O
		}
		var probeIn int64
		var stBefore iosim.Stats
		var tProbe time.Time
		if ws.stages != nil {
			probeIn = curCount()
			stBefore = ws.st
			tProbe = time.Now()
		}
		switch {
		case full:
			// First narrowing probe: the whole block must be examined,
			// so run directly on the compressed representation.
			ws.sel.Reset()
			applyBlockProbe(p, bi, ws.sel, ws)
			full, onBitmap = false, true
		case onBitmap && (wholeBlockCheap(p.col.BlockEncoding(bi)) ||
			(plan.foldsBlocks() && pi == len(plan.probes)-1 &&
				2*ws.sel.Count() >= blkLen)):
			// Word-level fused selection: filter the compressed block
			// and AND into the running selection vector. When the plan
			// ends in a decode-free fold and this is the final probe, a
			// dense selection (≥ half the block) also stays on the bitmap
			// for any encoding: the block then aggregates via AggSelect
			// with no position list at all. Earlier probes don't take that
			// gamble — a later probe would usually drop the density below
			// the gate and degrade to an index list anyway, leaving the
			// whole-block filter's cost (every position charged) with no
			// fold to pay for it. Plans that must gather their aggregate
			// inputs likewise gain nothing from the bitmap shape.
			ws.tmp.Reset()
			applyBlockProbe(p, bi, ws.tmp, ws)
			ws.sel.And(ws.tmp)
		default:
			if onBitmap {
				ws.idx = ws.sel.AppendPositions(ws.idx[:0])
				onBitmap = false
			}
			ws.vals = p.col.GatherBlock(bi, ws.idx, ws.vals[:0], &ws.st)
			k := 0
			switch {
			case p.isPred:
				if lo, hi, ok := p.pred.Bounds(); ok {
					// Interval predicates compact with two compares
					// per survivor instead of an op switch.
					for j, v := range ws.vals {
						if v >= lo && v <= hi {
							ws.idx[k] = ws.idx[j]
							k++
						}
					}
				} else {
					for j, v := range ws.vals {
						if p.pred.Match(v) {
							ws.idx[k] = ws.idx[j]
							k++
						}
					}
				}
			case p.dense != nil:
				// Dense-bitmap join probe: a branch-light bit test per
				// survivor, no hashing.
				dmin, dmax, bits := p.setMin, p.setMax, p.dense
				for j, v := range ws.vals {
					if v >= dmin && v <= dmax && bits.Get(int(v-dmin)) {
						ws.idx[k] = ws.idx[j]
						k++
					}
				}
			default:
				for j, v := range ws.vals {
					if p.matches(v) {
						ws.idx[k] = ws.idx[j]
						k++
					}
				}
			}
			ws.idx = ws.idx[:k]
		}
		if ws.stages != nil {
			sc := &ws.stages[pi]
			sc.Stats.Add(ws.st.Sub(stBefore))
			sc.RowsIn += probeIn
			sc.RowsOut += curCount()
			sc.WallNs += time.Since(tProbe).Nanoseconds()
		}
		if onBitmap {
			if ws.sel.Count() == 0 {
				return
			}
		} else if !full && len(ws.idx) == 0 {
			return
		}
	}

	// Materialize the survivor set for extraction and aggregation. With
	// kernels active and the selection still block- or bitmap-shaped, stay
	// on the bitmap: deletion masking is a word-wise AND-NOT and every
	// downstream extraction runs AggSelect/GatherSelect directly on the
	// compressed blocks — no position list, no per-position random access.
	var nSel int
	var tomb int64
	if ws.stages != nil {
		selIn := curCount()
		stBefore := ws.st
		t0 := time.Now()
		sc := &ws.stages[len(plan.probes)]
		// One deferred record covers every exit of the mask/extract/
		// aggregate tail; the closure is only set up on traced runs.
		defer func() {
			sc.Stats.Add(ws.st.Sub(stBefore))
			sc.RowsIn += selIn
			sc.RowsOut += int64(nSel)
			sc.Tombstoned += tomb
			sc.WallNs += time.Since(t0).Nanoseconds()
		}()
	}
	var gather func(col *colstore.Column, dst []int32) []int32
	if plan.kernels && (full || onBitmap) {
		if full {
			ws.sel.Reset()
			ws.sel.SetRange(0, blkLen)
		}
		if plan.del != nil {
			// blkBase is a multiple of BlockSize (itself a multiple of 64),
			// so the deletion vector masks word-aligned.
			if ws.stages != nil {
				preDel := int64(ws.sel.Count())
				ws.sel.AndNotWordsFrom(plan.del, blkBase/64)
				tomb = preDel - int64(ws.sel.Count())
			} else {
				ws.sel.AndNotWordsFrom(plan.del, blkBase/64)
			}
		}
		nSel = ws.sel.Count()
		if nSel == 0 {
			return
		}
		if !plan.grouped && plan.kernelable {
			// Decode-free aggregation: fold each distinct input column
			// once per block on its compressed representation and widen
			// the per-block accumulators into the aggregate cells.
			//lint:ignore ctxloop per-block fold over one block bi, bounded by the plan's aggregate list; the morsel loop driving it checks ctx once per block
			for ci, col := range plan.aggCols {
				acc := compress.NewAggAcc()
				col.AggSelectBlock(bi, ws.sel, &ws.st, &acc)
				ws.accs[ci] = acc
			}
			ws.rows += int64(nSel)
			foldAccCells(plan.specs, plan.ia, ws.aggCells, ws.accs, int64(nSel))
			return
		}
		gather = func(col *colstore.Column, dst []int32) []int32 {
			return col.GatherSelectBlock(bi, ws.sel, dst, &ws.st)
		}
	} else {
		if full {
			ws.idx = vector.AppendSeq(ws.idx[:0], 0, int32(blkLen))
		} else if onBitmap {
			ws.idx = ws.sel.AppendPositions(ws.idx[:0])
		}
		// Deletion-vector mask: drop tombstoned survivors before any
		// aggregate input is gathered, so purged rows cost no value I/O —
		// same contract as a failed probe.
		if plan.del != nil {
			before := len(ws.idx)
			k := 0
			for _, i := range ws.idx {
				if !plan.del.Get(blkBase + int(i)) {
					ws.idx[k] = i
					k++
				}
			}
			ws.idx = ws.idx[:k]
			if ws.stages != nil {
				tomb = int64(before - k)
			}
		}
		nSel = len(ws.idx)
		if nSel == 0 {
			return
		}
		gather = func(col *colstore.Column, dst []int32) []int32 {
			return col.GatherBlock(bi, ws.idx, dst, &ws.st)
		}
	}

	// Aggregate inputs at survivors only: gather each distinct input
	// column once per block.
	for ci, col := range plan.aggCols {
		ws.mvals[ci] = gather(col, ws.mvals[ci][:0])
	}

	if !plan.grouped {
		ws.rows += int64(nSel)
		fusedAccumulate(plan, ws, nil, nSel)
		return
	}

	// Group extraction: composite index accumulated per extractor, then
	// one dense-array update per survivor.
	ws.gidx = ws.gidx[:0]
	for r := 0; r < nSel; r++ {
		ws.gidx = append(ws.gidx, 0)
	}
	for gi, fx := range plan.exs {
		ws.fkv = gather(fx.fkCol, ws.fkv[:0])
		stride := plan.strides[gi]
		if fx.posDense == nil {
			for r, fk := range ws.fkv {
				ws.gidx[r] += int64(fx.codes[fk]) * stride
			}
		} else {
			// Date keys resolve through the dense key->position array.
			// Keys outside the dimension (possible only with unvalidated
			// -data files) degrade to position 0, matching the per-probe
			// path's map-miss behaviour instead of panicking.
			for r, fk := range ws.fkv {
				var pos int32
				if k := int64(fk) - int64(fx.keyMin); k >= 0 && k < int64(len(fx.posDense)) {
					if p := fx.posDense[k]; p >= 0 {
						pos = p
					}
				}
				ws.gidx[r] += int64(fx.codes[pos]) * stride
			}
		}
	}
	// Initialize newly seen groups to the aggregate identities, then
	// accumulate every aggregate.
	nAggs := plan.nAggs
	for _, gi := range ws.gidx {
		if !ws.seen.Get(int(gi)) {
			ws.seen.Set(int(gi))
			ssb.InitCells(plan.specs, ws.sums[gi*int64(nAggs):(gi+1)*int64(nAggs)])
		}
	}
	fusedAccumulate(plan, ws, ws.gidx, nSel)
}

// kernelableSpecs reports whether every aggregate folds from per-column
// sum/count/min/max accumulators alone: single-operand (or COUNT) specs
// only, since a two-operand expression such as SUM(price*discount) needs
// both values of each row, not per-column marginals.
func kernelableSpecs(specs []ssb.AggSpec, ia, ib []int) bool {
	if len(specs) == 0 {
		return false
	}
	for k, s := range specs {
		if ib[k] >= 0 {
			return false
		}
		if s.Func != ssb.FuncCount && ia[k] < 0 {
			return false
		}
	}
	return true
}

// foldAccCells widens per-column kernel accumulators into ungrouped
// aggregate cells for nSel selected rows. Shared by the fused pipeline
// (per block) and the per-probe pipeline (whole position list).
func foldAccCells(specs []ssb.AggSpec, ia []int, cells []int64, accs []compress.AggAcc, nSel int64) {
	for k, s := range specs {
		switch s.Func {
		case ssb.FuncCount:
			cells[k] += nSel
		case ssb.FuncSum:
			cells[k] += accs[ia[k]].Sum
		case ssb.FuncMin:
			if a := &accs[ia[k]]; a.Count > 0 {
				cells[k] = s.Combine(cells[k], a.Min)
			}
		case ssb.FuncMax:
			if a := &accs[ia[k]]; a.Count > 0 {
				cells[k] = s.Combine(cells[k], a.Max)
			}
		}
	}
}

// fusedAccumulate folds the block's nSel survivors into the worker's
// aggregates: the ungrouped cells when gidx is nil, otherwise the dense
// per-group cells. The single-column SUM loops are kept specialized — they
// are the hot path for every fixed SSBM flight.
func fusedAccumulate(plan *fusedPlan, ws *fusedWorker, gidx []int64, nSel int) {
	nAggs := int64(plan.nAggs)
	for k, s := range plan.specs {
		var va, vb []int32
		if plan.ia[k] >= 0 {
			va = ws.mvals[plan.ia[k]]
		}
		if plan.ib[k] >= 0 {
			vb = ws.mvals[plan.ib[k]]
		}
		if gidx == nil {
			cell := ws.aggCells[k]
			switch {
			case s.Func == ssb.FuncCount:
				cell += int64(nSel)
			case s.Func == ssb.FuncSum && s.Expr.Op == '*':
				for r, v := range va {
					cell += int64(v) * int64(vb[r])
				}
			case s.Func == ssb.FuncSum && s.Expr.Op == '-':
				for r, v := range va {
					cell += int64(v) - int64(vb[r])
				}
			case s.Func == ssb.FuncSum:
				for _, v := range va {
					cell += int64(v)
				}
			default:
				for r, v := range va {
					var b int32
					if vb != nil {
						b = vb[r]
					}
					cell = s.Combine(cell, s.Expr.Eval(v, b))
				}
			}
			ws.aggCells[k] = cell
			continue
		}
		ko := int64(k)
		switch {
		case s.Func == ssb.FuncCount:
			for _, gi := range gidx {
				ws.sums[gi*nAggs+ko]++
			}
		case s.Func == ssb.FuncSum && s.Expr.Op == '*':
			for r, gi := range gidx {
				ws.sums[gi*nAggs+ko] += int64(va[r]) * int64(vb[r])
			}
		case s.Func == ssb.FuncSum && s.Expr.Op == '-':
			for r, gi := range gidx {
				ws.sums[gi*nAggs+ko] += int64(va[r]) - int64(vb[r])
			}
		case s.Func == ssb.FuncSum:
			for r, gi := range gidx {
				ws.sums[gi*nAggs+ko] += int64(va[r])
			}
		default:
			for r, gi := range gidx {
				var b int32
				if vb != nil {
					b = vb[r]
				}
				c := gi*nAggs + ko
				ws.sums[c] = s.Combine(ws.sums[c], s.Expr.Eval(va[r], b))
			}
		}
	}
}

// applyBlockProbe evaluates one probe over a whole block directly on its
// compressed representation, charging a full block read. The block is
// acquired here — after the caller's zone-map checks — and released before
// returning, so a segment-backed block is pinned only while its values are
// being examined.
func applyBlockProbe(p *factProbe, bi int, out *bitmap.Bitmap, ws *fusedWorker) {
	blk, release := p.col.AcquireBlock(bi)
	ws.st.BlockFetched()
	ws.st.Read(blk.CompressedBytes())
	ws.st.KernelFold()
	switch {
	case p.isPred:
		blk.Filter(p.pred, 0, out)
	case p.dense != nil:
		blk.FilterSet(p.dense, p.setMin, 0, out)
	default:
		// Hash-set probe reached the fused path (defensive; planProbes
		// builds dense sets whenever the fused pipeline is active). Probe
		// membership natively — one test per run / distinct value where
		// the encoding allows — instead of decoding the whole block.
		blk.FilterFunc(p.matches, 0, out)
	}
	release()
}
