package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/ssb"
)

// The ingest-dashboard writer: an open loop of writeRate operations per
// second, every deleteEvery-th of them a delete of deleteRows rows from the
// batch inserted deleteLag operations earlier (acked by then: the writer
// sends one operation at a time). About 13K rows/s, so each 5 s segment of
// a 15 s run ingests one 64K-row compaction cycle before its final flush.
const (
	writeRate   = 110
	batchRows   = 128
	deleteEvery = 20
	deleteRows  = 32
	deleteLag   = 10
)

// walWindow is the group-commit window: ssb-serve's default flush policy.
const walWindow = time.Millisecond

// insertRow mirrors one row of the server's /insert JSON.
type insertRow struct {
	OrderKey      int32  `json:"orderkey"`
	LineNumber    int32  `json:"linenumber"`
	CustKey       int32  `json:"custkey"`
	PartKey       int32  `json:"partkey"`
	SuppKey       int32  `json:"suppkey"`
	OrderDate     int32  `json:"orderdate"`
	OrdPriority   string `json:"ordpriority"`
	ShipPriority  int32  `json:"shippriority"`
	Quantity      int32  `json:"quantity"`
	ExtendedPrice int32  `json:"extendedprice"`
	OrdTotalPrice int32  `json:"ordtotalprice"`
	Discount      int32  `json:"discount"`
	Revenue       int32  `json:"revenue"`
	SupplyCost    int32  `json:"supplycost"`
	Tax           int32  `json:"tax"`
	CommitDate    int32  `json:"commitdate"`
	ShipMode      string `json:"shipmode"`
}

type insertRequest struct {
	Rows []insertRow `json:"rows"`
}

type insertResponse struct {
	Inserted int `json:"inserted"`
}

type deleteFilter struct {
	Col string `json:"col"`
	Op  string `json:"op"`
	A   int32  `json:"a"`
	B   int32  `json:"b"`
}

type deleteRequest struct {
	Filters []deleteFilter `json:"filters"`
}

type deleteResponse struct {
	Deleted int64 `json:"deleted"`
}

// writePlan is the writer's deterministic operation list: op i inserts
// batch i (orderkeys firstKey+i*batchRows onward, above every base
// orderkey, so deletes hit only benchmark rows) or deletes part of an
// earlier batch.
type writePlan struct {
	seed     int64
	shape    ssb.BatchShape
	firstKey int32
}

func isDelete(i int) bool { return i%deleteEvery == deleteEvery-1 }

// batch generates insert op i's rows.
func (p writePlan) batch(i int) ([]insertRow, error) {
	b, err := ssb.RandBatch(p.seed*1_000_003+int64(i), batchRows, p.shape)
	if err != nil {
		return nil, err
	}
	rows := make([]insertRow, b.Len())
	for r := range rows {
		rows[r] = insertRow{
			OrderKey: p.firstKey + int32(i*batchRows+r), LineNumber: b.LineNumber[r],
			CustKey: b.CustKey[r], PartKey: b.PartKey[r], SuppKey: b.SuppKey[r],
			OrderDate: b.OrderDate[r], OrdPriority: b.OrdPriority[r], ShipPriority: b.ShipPriority[r],
			Quantity: b.Quantity[r], ExtendedPrice: b.ExtendedPrice[r], OrdTotalPrice: b.OrdTotalPrice[r],
			Discount: b.Discount[r], Revenue: b.Revenue[r], SupplyCost: b.SupplyCost[r],
			Tax: b.Tax[r], CommitDate: b.CommitDate[r], ShipMode: b.ShipMode[r],
		}
	}
	return rows, nil
}

// tally tracks what the writer's acked operations did to the table.
type tally struct {
	// acked maps each acked insert op to the revenues of the rows a later
	// delete targets (its first deleteRows rows).
	acked      map[int][]int32
	rows, rev  int64 // net rows and revenue added
	badDeletes int
}

// writer is one segment's open-loop writer.
type writer struct {
	h      *harness
	plan   writePlan
	ops    *ledger
	traced bool
	tally  tally
	// lat holds each insert's latency from its due time (ms); late the
	// largest lateness of any operation; ids the traced inserts' request
	// IDs; err a generation failure.
	lat  []float64
	late time.Duration
	ids  []string
	err  error
}

// run issues n operations on the writer's schedule, starting now.
func (wr *writer) run(n int, epoch time.Time) {
	wr.tally.acked = map[int][]int32{}
	// prep generates and encodes op i's body before its due time, so the
	// client's own encoding stays out of the measured latency.
	var body []byte
	var rows []insertRow
	prep := func(i int) {
		var req any
		if isDelete(i) {
			lo := wr.plan.firstKey + int32((i-deleteLag)*batchRows)
			req = deleteRequest{Filters: []deleteFilter{{Col: "orderkey", Op: "between", A: lo, B: lo + deleteRows - 1}}}
		} else {
			var err error
			if rows, err = wr.plan.batch(i); err != nil && wr.err == nil {
				wr.err = err
			}
			req = insertRequest{Rows: rows}
		}
		var err error
		if body, err = json.Marshal(req); err != nil && wr.err == nil {
			wr.err = err
		}
	}
	do := func(i int) {
		t := &wr.tally
		if isDelete(i) {
			var resp deleteResponse
			status, err := wr.h.postRaw("/delete", body, "", &resp)
			failed := opFailed(status, err)
			wr.ops.record("delete", failed)
			if failed {
				return
			}
			target := t.acked[i-deleteLag]
			if resp.Deleted != int64(len(target)) {
				t.badDeletes++
				return
			}
			for _, rev := range target {
				t.rows--
				t.rev -= int64(rev)
			}
			return
		}
		id := ""
		if wr.traced {
			id = "w-" + strconv.Itoa(i)
			wr.ids = append(wr.ids, id)
		}
		var resp insertResponse
		status, err := wr.h.postRaw("/insert", body, id, &resp)
		failed := opFailed(status, err) || resp.Inserted != len(rows)
		wr.ops.record("insert", failed)
		if failed {
			return
		}
		t.rows += int64(len(rows))
		for r, row := range rows {
			t.rev += int64(row.Revenue)
			if r < deleteRows {
				t.acked[i] = append(t.acked[i], row.Revenue)
			}
		}
	}
	loop := openLoop{start: time.Since(epoch), period: time.Second / writeRate}
	now := func() time.Duration { return time.Since(epoch) }
	for i, t := range loop.run(n, now, time.Sleep, prep, do) {
		wr.late = max(wr.late, t.Late)
		if !isDelete(i) {
			wr.lat = append(wr.lat, ms(t.Latency))
		}
	}
}

// ingestTotals sums the write path's work over the segments.
type ingestTotals struct {
	flushMs            []float64
	compactions        int64
	syncs, commits     int64
	appended           int64
	diskBytes, rows    int64
	insertLat, handler []float64
	late               time.Duration
	correct            bool
}

// ingestDashboard runs, on each set-up in turn, the open-loop writer beside
// one closed-loop client repeating the 13 SSBM queries, then flushes and
// checks that COUNT(*) and SUM(lo_revenue) equal the base plus acked
// inserts minus acked deletes.
func ingestDashboard(cfg runConfig) (*outcome, error) {
	epoch := time.Now()
	spec := servedSpec{
		opts: server.Options{Workers: 2, Ingest: true, WALWindow: walWindow},
		wal:  true,
	}
	sqls := sqlTexts(ssb.Queries())
	out := &outcome{ops: newLedger(), metrics: map[string]float64{}}
	m := out.metrics
	mt := &meter{epoch: epoch}
	tot := &ingestTotals{correct: true}
	var setupS []float64
	var recs []queryRec
	for i := 0; i < setups; i++ {
		h, s, err := setUpTimed(cfg.dir, i, spec, epoch, sqls)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		seg, err := ingestSegment(cfg, i, h, mt, out.ops, sqls, tot)
		if cerr := h.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, seg...)
	}
	ok := succeeded(recs)
	out.correct = tot.correct
	m["setup_s"] = median(setupS)
	m["failed_ratio"] = out.ops.failedRatio()
	mt.runtimeMetrics(m, ok)
	mt.poolMetrics(m, ok)
	spans := queryMetrics(m, recs, sqls, mt, false)
	s := summarize(tot.insertLat)
	noteTail("insert", s)
	m["insert_p50_ms"], m["insert_p99_ms"] = s.P50, s.P99
	m["bench.gen_late_ms_max"] = ms(tot.late)
	m["server.insert_handler_ms_p50"] = summarize(tot.handler).P50
	m["exec.flush_ms"] = median(tot.flushMs)
	m["exec.compactions"] = float64(tot.compactions)
	m["exec.ws_pending_rows_max"] = float64(mt.pendMax)
	m["segstore.appended_mb"] = float64(tot.appended) / 1e6
	m["wal.syncs"] = float64(tot.syncs)
	if tot.syncs > 0 {
		m["wal.commits_per_sync"] = float64(tot.commits) / float64(tot.syncs)
	}
	m["disk_bytes_per_row"] = float64(tot.diskBytes) / float64(tot.rows)
	if cfg.trace {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	report("ingest-dashboard", out)
	return out, nil
}

// ingestSegment measures one segment on set-up i: writer and dashboard
// until the writer's schedule ends, then the final flush and the ingest
// invariant check.
func ingestSegment(cfg runConfig, i int, h *harness, mt *meter, ops *ledger, sqls []string, tot *ingestTotals) ([]queryRec, error) {
	var baseRev int64
	var maxKey int32
	for r, rev := range h.data.Line.Revenue {
		baseRev += int64(rev)
		maxKey = max(maxKey, h.data.Line.OrderKey[r])
	}
	seed := cfg.seed*setups + int64(i)
	wr := &writer{h: h, plan: writePlan{seed: seed, shape: h.data.Shape(), firstKey: maxKey + 1}, ops: ops, traced: cfg.trace}
	h.data = nil
	wal0, ing0 := h.sdb.WALStats(), h.sdb.IngestStats()
	app0 := h.sdb.SegmentStore().Pool().Stats().AppendedBytes

	mt.begin(h, true)
	n := int(segment(cfg.seconds).Seconds() * writeRate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wr.run(n, mt.epoch)
	}()
	cr := &clientRun{seg: i, h: h, epoch: mt.epoch, seed: seed, sqls: sqls, traced: cfg.trace,
		deadline: mt.start.Add(segment(cfg.seconds)), ops: ops}
	recs := cr.run(1)
	wg.Wait()
	mt.end(h)
	if wr.err != nil {
		return nil, wr.err
	}

	flushStart := time.Now()
	flushErr := h.sdb.FlushIngest()
	tot.flushMs = append(tot.flushMs, ms(time.Since(flushStart)))
	var check queryResponse
	status, err := h.post("/query", queryRequest{SQL: "select count(*), sum(lo_revenue) from lineorder"}, "", &check)
	ing1, wal1 := h.sdb.IngestStats(), h.sdb.WALStats()
	wantRows, wantRev := h.baseRows+wr.tally.rows, baseRev+wr.tally.rev
	ok := flushErr == nil && ing1.Err == "" && wr.tally.badDeletes == 0 && !opFailed(status, err) &&
		len(check.Rows) == 1 && len(check.Rows[0].Aggs) == 2 &&
		check.Rows[0].Aggs[0] == wantRows && check.Rows[0].Aggs[1] == wantRev
	if !ok {
		tot.correct = false
		fmt.Fprintf(os.Stderr, "ssbbench: ingest invariant broken: flush %v, mover %q, %d deletes off, check status %d err %v rows %v; want count %d sum %d\n",
			flushErr, ing1.Err, wr.tally.badDeletes, status, err, check.Rows, wantRows, wantRev)
	}
	tot.compactions += ing1.Compactions - ing0.Compactions
	tot.syncs += wal1.Syncs - wal0.Syncs
	tot.commits += wal1.Commits - wal0.Commits
	tot.appended += h.sdb.SegmentStore().Pool().Stats().AppendedBytes - app0
	tot.diskBytes += fileSize(h.segPath) + fileSize(h.walPath)
	tot.rows += wantRows
	tot.insertLat = append(tot.insertLat, wr.lat...)
	tot.late = max(tot.late, wr.late)
	for _, id := range wr.ids {
		if sp, ok := h.clock.get(id); ok {
			tot.handler = append(tot.handler, float64(sp[1]-sp[0])/1e6)
		}
	}
	return recs, nil
}
