package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bitmap"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/iosim"
	"repro/internal/obs"
	"repro/internal/ssb"
)

// This file evaluates a query plan over the write store and unions the
// partial with the read-optimized store's result — the WS side of the
// paper's split architecture. The scan is deliberately simple (row-at-a-
// time over in-memory columnar batches, one pass, no parallelism): the
// write store is bounded by the compaction threshold, so its scan cost is a
// small constant on top of the segment scan. What it shares with the block
// engines is the planning: the same planProbes output (dimension predicate
// evaluation, between-rewritten joins, membership sets) applies to delta
// values, and per-batch running min/max gives unflushed data the same
// zone-map pruning sealed segments get.

// wsGroup is one group's raw (pre-finalize) accumulation.
type wsGroup struct {
	keys  []string
	cells []int64
}

// wsPartial is the write-store side of a snapshot query.
type wsPartial struct {
	rows  map[string]*wsGroup // grouped accumulations by composite key
	cells []int64             // ungrouped accumulation
	n     int64               // qualifying delta rows
}

// wsKey renders group keys as one map key.
func wsKey(keys []string) string { return strings.Join(keys, "\x00") }

// scanWS evaluates q over the delta view. The whole pass is free in the
// logical I/O model: delta values are memory-resident writes, and the
// planning it needs (dimension predicate evaluation, group extractors) was
// already performed — and charged — by the sealed-engine run of the same
// query, so re-charging it here would make a query's reported I/O jump the
// moment a single delta row exists. The re-planning CPU is accepted: it
// keeps the engines' internals untouched, and the write store is bounded
// by the compaction threshold.
// del (nil = none) is the write-store deletion vector, indexed by
// delta-global row; rows inserted after the last delete may lie past its
// length and are implicitly live.
func (db *DB) scanWS(ctx context.Context, view *delta.View, q *ssb.Query, cfg Config, del *bitmap.Bitmap, tr *obs.Trace) *wsPartial {
	// The WS scan is one trace stage: batches pruned/covered by the
	// unflushed zone maps, rows scanned vs qualifying, tombstones skipped.
	// It charges nothing to st (see below), so the counters are recorded
	// directly rather than via Stats deltas.
	var sc obs.StageCounters
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	specs := q.AggSpecs()
	out := &wsPartial{cells: make([]int64, len(specs))}
	ssb.InitCells(specs, out.cells)

	var planSt iosim.Stats // planning I/O already charged by the sealed run
	probes := db.planProbes(q, cfg, &planSt)
	pcols := make([]string, len(probes))
	for i, p := range probes {
		pcols[i] = p.col.Name
	}
	aggNames, ia, ib := ssb.AggInputs(specs)

	grouped := len(q.GroupBy) > 0
	var exs []*groupExtractor
	var fkNames []string
	var strides []int64
	var groups map[int64][]int64
	if grouped {
		// Force the invisible-join layout (like the fused pipeline): delta
		// foreign keys are physical positions, so extraction is a direct
		// array index; dates resolve through the key->position map.
		ij := cfg
		ij.InvisibleJoin = true
		for _, g := range q.GroupBy {
			exs = append(exs, db.newGroupExtractor(g, ij, &planSt))
			fkNames = append(fkNames, g.Dim.FactFK())
		}
		strides, _ = groupStrides(exs)
		groups = map[int64][]int64{}
	}

	// next tracks the delta-global index of the next visible row, anchoring
	// the deletion-vector lookups; it must advance on every exit path,
	// including zone-map skips.
	next := view.Lo()
	view.ForEach(func(b *delta.Batch, lo, hi int) bool {
		if ctx.Err() != nil {
			return false
		}
		base := next - int64(lo)
		next += int64(hi - lo)
		// Zone-map pruning on unflushed data: a batch no probe can match
		// contributes nothing and is skipped without touching values.
		for i, p := range probes {
			if mn, mx, ok := b.MinMax(pcols[i]); ok && !p.mayMatch(mn, mx) {
				if tr != nil {
					sc.BlockPruned()
				}
				return true
			}
		}
		// Whole-batch fast path (kernels): when every probe's batch min/max
		// proves full coverage and no row in the batch is tombstoned, the
		// batch folds straight into the aggregate accumulators with no
		// per-row probe tests — the unflushed analogue of the block
		// engines' covered-block pass-through.
		if !grouped && cfg.KernelsActive() && kernelableSpecs(specs, ia, ib) {
			covered := true
			for i, p := range probes {
				mn, mx, ok := b.MinMax(pcols[i])
				if !ok || !p.coversBlock(mn, mx) {
					covered = false
					break
				}
			}
			if covered && (del == nil || del.CountRange(int(base)+lo, int(base)+hi) == 0) {
				if tr != nil {
					sc.BlockCovered()
					sc.KernelFold()
				}
				accs := make([]compress.AggAcc, len(aggNames))
				for i, name := range aggNames {
					accs[i] = compress.NewAggAcc()
					for _, v := range b.Col(name)[lo:hi] {
						accs[i].Observe(v, 1)
					}
				}
				out.n += int64(hi - lo)
				foldAccCells(specs, ia, out.cells, accs, int64(hi-lo))
				return true
			}
		}
		pvals := make([][]int32, len(probes))
		for i := range probes {
			pvals[i] = b.Col(pcols[i])
		}
		avals := make([][]int32, len(aggNames))
		for i, name := range aggNames {
			avals[i] = b.Col(name)
		}
		gvals := make([][]int32, len(fkNames))
		for i, name := range fkNames {
			gvals[i] = b.Col(name)
		}
	row:
		for r := lo; r < hi; r++ {
			if (r-lo)&0xFFFF == 0xFFFF && ctx.Err() != nil {
				return false
			}
			if del != nil {
				if g := base + int64(r); g < int64(del.Len()) && del.Get(int(g)) {
					if tr != nil {
						sc.Tombstoned++
					}
					continue row
				}
			}
			for i, p := range probes {
				v := pvals[i][r]
				if p.isPred {
					if !p.pred.Match(v) {
						continue row
					}
				} else if !p.matches(v) {
					continue row
				}
			}
			out.n++
			cells := out.cells
			if grouped {
				idx := int64(0)
				for i, ex := range exs {
					pos := gvals[i][r]
					if ex.isDate {
						pos = db.dateByKey[pos]
					}
					idx += int64(ex.attr[pos]) * strides[i]
				}
				cells = groups[idx]
				if cells == nil {
					cells = make([]int64, len(specs))
					ssb.InitCells(specs, cells)
					groups[idx] = cells
				}
			}
			for k, s := range specs {
				var v int64
				if s.Func != ssb.FuncCount {
					var a, b2 int32
					a = avals[ia[k]][r]
					if ib[k] >= 0 {
						b2 = avals[ib[k]][r]
					}
					v = s.Expr.Eval(a, b2)
				}
				cells[k] = s.Combine(cells[k], v)
			}
		}
		return true
	})

	if grouped {
		out.rows = make(map[string]*wsGroup, len(groups))
		for idx, cells := range groups {
			keys := make([]string, len(exs))
			rem := idx
			for i := range exs {
				keys[i] = exs[i].render(int32(rem / strides[i]))
				rem %= strides[i]
			}
			out.rows[wsKey(keys)] = &wsGroup{keys: keys, cells: cells}
		}
	}
	if tr != nil {
		sc.RowsIn = view.Len()
		sc.RowsOut = out.n
		sc.WallNs = time.Since(t0).Nanoseconds()
		tr.AddStage("ws-scan", fmt.Sprintf("%d delta rows", view.Len()), sc)
	}
	return out
}

// mergeWS unions the sealed engine result with the write-store partial.
// Grouped rows merge cell-wise by group key — every emitted group saw at
// least one row on its side, so its cells are raw accumulations and
// AggSpec.Merge is exact. Ungrouped queries need the sealed side's
// qualifying-row count to tell "zero rows" (identity) from real zeros, so
// RunCtx appends a hidden COUNT spec to the engine's plan; sealed carries
// len(specs)+1 aggregates with the count last.
func mergeWS(q *ssb.Query, specs []ssb.AggSpec, sealed *ssb.Result, ws *wsPartial) *ssb.Result {
	if len(q.GroupBy) == 0 {
		vals := sealed.Rows[0].AggValues()
		sealedN := vals[len(vals)-1]
		sealedCells := vals[:len(specs)]
		merged := make([]int64, len(specs))
		switch {
		case sealedN == 0 && ws.n == 0:
			// Both sides empty: the all-zero convention.
		case sealedN == 0:
			copy(merged, ws.cells)
		case ws.n == 0:
			copy(merged, sealedCells)
		default:
			for k, s := range specs {
				merged[k] = s.Merge(sealedCells[k], ws.cells[k])
			}
		}
		return ssb.NewResult(q.ID, []ssb.ResultRow{ssb.MakeRow(nil, ssb.FinalizeCells(specs, merged, sealedN+ws.n))})
	}

	merged := make(map[string]*wsGroup, len(sealed.Rows)+len(ws.rows))
	for _, r := range sealed.Rows {
		merged[wsKey(r.Keys)] = &wsGroup{keys: r.Keys, cells: append([]int64(nil), r.AggValues()...)}
	}
	for key, g := range ws.rows {
		if e, ok := merged[key]; ok {
			for k, s := range specs {
				e.cells[k] = s.Merge(e.cells[k], g.cells[k])
			}
		} else {
			merged[key] = g
		}
	}
	rows := make([]ssb.ResultRow, 0, len(merged))
	for _, g := range merged {
		rows = append(rows, ssb.MakeRow(g.keys, g.cells))
	}
	return ssb.NewResult(q.ID, rows)
}
