package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/ssb"
)

// randPlans is how many ssb.RandQuery plans join the 13 SSBM queries in
// the ad-hoc mix. The set is fixed, so every seed serves the same work and
// the seed orders it. Its size keeps the heaviest plans (one of the 163 is
// several times slower than the rest) well under 1% of requests, so p99
// lands inside the dense band of slow plans instead of on the step below
// the slowest one, where it would jump between runs.
const randPlans = 150

func adhocPlans() []*ssb.Query {
	qs := ssb.Queries()
	for i := int64(1); i <= randPlans; i++ {
		qs = append(qs, ssb.RandQuery(i))
	}
	return qs
}

// references computes every plan's brute-force result on two goroutines.
func references(d *ssb.Data, qs []*ssb.Query) []*ssb.Result {
	out := make([]*ssb.Result, len(qs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += 2 {
				out[i] = ssb.Reference(d, qs[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sqlTexts renders each plan as the SQL text the clients send.
func sqlTexts(qs []*ssb.Query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = q.SQL()
	}
	return out
}

// setUpTimed builds set-up i and warms it with one serial pass over sqls,
// returning it with the set-up time in seconds. A collection runs first so
// every set-up starts from the same heap.
func setUpTimed(dir string, i int, spec servedSpec, epoch time.Time, sqls []string) (*harness, float64, error) {
	runtime.GC()
	start := time.Now()
	h, err := setUpServed(dir, i, spec, epoch)
	if err != nil {
		return nil, 0, err
	}
	if err := h.warm(sqls); err != nil {
		_ = h.close()
		return nil, 0, err
	}
	return h, time.Since(start).Seconds(), nil
}

// queryRec is one query a client sent.
type queryRec struct {
	seg        int // the window segment (set-up) that sent it
	id         string
	plan       int
	traced     bool
	failed     bool
	start, end int64 // ns since the run epoch
	// handler is the wrapper's server.handler span (traced requests only).
	handler  [2]int64
	resolved bool
	// What the response said about its cost; the rows are checked and
	// dropped so the benchmark's own heap stays out of peak_heap_mb.
	cached        bool
	waitNs, cpuNs int64
	trace         *obs.Trace
}

// succeeded counts the records whose request succeeded.
func succeeded(recs []queryRec) int {
	n := 0
	for _, r := range recs {
		if !r.failed {
			n++
		}
	}
	return n
}

// wrongCount counts results that differ from their reference.
type wrongCount struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (wc *wrongCount) check(out *queryResponse, ref *ssb.Result, sql string) {
	got, ok := out.result()
	if ok && got.Equal(ref) {
		return
	}
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.n++
	if wc.n <= 3 {
		diff := "row without aggregates"
		if ok {
			diff = ref.Diff(got)
		}
		fmt.Fprintf(os.Stderr, "ssbbench: wrong result for %s\n%s", sql, diff)
	}
}

func (wc *wrongCount) count() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return wc.n
}

// clientRun is what the closed-loop clients of one segment share.
type clientRun struct {
	seg      int
	h        *harness
	epoch    time.Time
	seed     int64
	sqls     []string
	refs     []*ssb.Result // nil: results change under ingest, not checked
	traced   bool
	deadline time.Time
	ops      *ledger
	wrong    *wrongCount
}

// client is one closed-loop client: it sends the plans in a seeded
// shuffle, pass after pass, until the deadline. In a traced run every
// other request asks for a trace and carries a request ID.
func (cr *clientRun) client(c int) []queryRec {
	rng := rand.New(rand.NewSource(cr.seed*7919 + int64(c)))
	var recs []queryRec
	for n := 0; ; {
		for _, pi := range rng.Perm(len(cr.sqls)) {
			if time.Now().After(cr.deadline) {
				return recs
			}
			rec := queryRec{seg: cr.seg, plan: pi, traced: cr.traced && (n+c)%2 == 0}
			if rec.traced {
				rec.id = strconv.FormatInt(cr.seed, 10) + "-" + strconv.Itoa(c) + "-" + strconv.Itoa(n)
			}
			n++
			var out queryResponse
			rec.start = int64(time.Since(cr.epoch))
			status, err := cr.h.post("/query", queryRequest{SQL: cr.sqls[pi], Trace: rec.traced}, rec.id, &out)
			rec.end = int64(time.Since(cr.epoch))
			rec.failed = opFailed(status, err)
			cr.ops.record("query", rec.failed)
			if rec.failed {
				fmt.Fprintf(os.Stderr, "ssbbench: query failed (status %d, %v)\n", status, err)
			} else {
				rec.cached, rec.waitNs, rec.cpuNs, rec.trace = out.Cached, out.WaitNs, out.CPUNs, out.Trace
				if cr.refs != nil {
					cr.wrong.check(&out, cr.refs[pi], cr.sqls[pi])
				}
			}
			recs = append(recs, rec)
		}
	}
}

// run runs n clients to the deadline and returns their records, with the
// handler spans of traced requests resolved.
func (cr *clientRun) run(n int) []queryRec {
	all := make([][]queryRec, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			all[c] = cr.client(c)
		}(c)
	}
	wg.Wait()
	var out []queryRec
	for _, r := range all {
		out = append(out, r...)
	}
	for i := range out {
		if out[i].traced {
			out[i].handler, out[i].resolved = cr.h.clock.get(out[i].id)
		}
	}
	return out
}

// queryMetrics records the end-to-end query metrics over the untraced
// requests, and the server metrics and trace metrics over the rest. p50 and
// the rate are medians over the window's segments; p99 pools them, as one
// segment holds too few samples for it. It returns the traced requests'
// spans.
func queryMetrics(m map[string]float64, recs []queryRec, sqls []string, mt *meter, serial bool) []span {
	segs := mt.segs
	var lat, latTraced, waits, execs []float64
	segLat, segOK := make([][]float64, len(segs)), make([][]float64, len(segs))
	for _, r := range recs {
		if r.failed {
			continue
		}
		d := float64(r.end-r.start) / 1e6
		segOK[r.seg] = append(segOK[r.seg], d)
		if r.traced {
			latTraced = append(latTraced, d)
		} else {
			lat = append(lat, d)
			segLat[r.seg] = append(segLat[r.seg], d)
		}
		if !r.cached {
			waits = append(waits, float64(r.waitNs)/1e6)
			execs = append(execs, float64(r.cpuNs)/1e6)
		}
	}
	s := summarize(lat)
	noteTail("query", s)
	m["query_p50_ms"], _ = segmentMedians(segLat, segs)
	_, m["queries_per_s"] = segmentMedians(segOK, segs)
	m["query_p99_ms"] = s.P99
	ws, es := summarize(waits), summarize(execs)
	m["server.admit_wait_ms_p50"], m["server.admit_wait_ms_p99"] = ws.P50, ws.P99
	m["server.exec_ms_p50"], m["server.exec_ms_p99"] = es.P50, es.P99
	if len(latTraced) > 0 && s.P50 > 0 {
		m["obs.trace_overhead_pct"] = (summarize(latTraced).P50 - s.P50) / s.P50 * 100
	}
	return traceMetrics(m, recs, sqls, mt.epoch, serial)
}

// traceMetrics builds each traced request's span tree — http.request on the
// client, server.handler from the wrapper, admission wait and exec from the
// response, one span per engine stage from the returned trace — plus a
// sql.parse span from a direct parse of the request's text, and reduces
// them to self-times and per-query stage costs.
func traceMetrics(m map[string]float64, recs []queryRec, sqls []string, epoch time.Time, serial bool) []span {
	var all []span
	var httpSelf, serverSelf, parse []float64
	stageNs := map[string]int64{}
	var tot obs.StageCounters
	runs, sumMismatch, stageOver := 0, 0, 0
	for ri, r := range recs {
		if !r.traced || r.failed || !r.resolved {
			continue
		}
		req := int64(ri)
		hs := r.handler
		spans := []span{
			{Req: req, Name: "http.request", Parent: -1, Start: r.start, End: r.end},
			{Req: req, Name: "server.handler", Parent: 0, Start: hs[0], End: hs[1]},
		}
		var wait, execNs int64
		if !r.cached {
			wait, execNs = r.waitNs, r.cpuNs
			// The response gives durations only; placing admission
			// first and exec after it inside the handler leaves every
			// self-time unchanged.
			spans = append(spans,
				span{Req: req, Name: "server.admit_wait", Parent: 1, Start: hs[0], End: hs[0] + wait},
				span{Req: req, Name: "server.exec", Parent: 1, Start: hs[0] + wait, End: hs[0] + wait + execNs})
			if tr := r.trace; tr != nil {
				runs++
				at, stageSum := hs[0]+wait, int64(0)
				for _, st := range tr.Stages {
					spans = append(spans, span{Req: req, Name: "exec." + st.Name, Parent: 3, Start: at, End: at + st.WallNs})
					at += st.WallNs
					stageSum += st.WallNs
					stageNs[st.Name] += st.WallNs
				}
				tot.Add(tr.Totals())
				if serial && stageSum > execNs {
					stageOver++
				}
			}
		}
		hSelf, sSelf := selfTime(spans, 0), selfTime(spans, 1)
		if hSelf+sSelf+wait+execNs != r.end-r.start {
			sumMismatch++
		}
		httpSelf = append(httpSelf, float64(hSelf)/1e6)
		serverSelf = append(serverSelf, float64(sSelf)/1e6)
		p0 := int64(time.Since(epoch))
		_, err := sql.Parse("bench", sqls[r.plan])
		p1 := int64(time.Since(epoch))
		if err == nil {
			parse = append(parse, float64(p1-p0)/1e3)
			spans = append(spans, span{Req: req, Name: "sql.parse", Parent: -1, Start: p0, End: p1})
		}
		all = append(all, spans...)
	}
	if sumMismatch > 0 || stageOver > 0 {
		fmt.Fprintf(os.Stderr, "ssbbench: trace check: %d requests whose layers do not sum to the round trip, %d serial runs whose stages exceed exec\n", sumMismatch, stageOver)
	}
	m["http.self_ms_p50"] = summarize(httpSelf).P50
	m["server.self_ms_p50"] = summarize(serverSelf).P50
	m["sql.parse_us_p50"] = summarize(parse).P50
	if runs > 0 {
		q := float64(runs)
		m["exec.plan_ms_per_query"] = float64(stageNs["plan"]) / 1e6 / q
		m["exec.probe_ms_per_query"] = float64(stageNs["probe"]) / 1e6 / q
		m["exec.extract_aggregate_ms_per_query"] = float64(stageNs["extract+aggregate"]+stageNs["aggregate"]) / 1e6 / q
		m["exec.ws_scan_ms_per_query"] = float64(stageNs["ws-scan"]) / 1e6 / q
		m["exec.blocks_fetched_per_query"] = float64(tot.BlocksFetched) / q
		m["compress.decoded_mb_per_query"] = float64(tot.DecodedBytes) / 1e6 / q
	}
	if n := tot.BlocksPruned + tot.BlocksCovered + tot.BlocksFetched; n > 0 {
		m["exec.block_skip_ratio"] = float64(tot.BlocksPruned+tot.BlocksCovered) / float64(n)
	}
	if n := tot.KernelFolds + tot.Gathers; n > 0 {
		m["compress.fold_ratio"] = float64(tot.KernelFolds) / float64(n)
	}
	return all
}

// noteTail states a latency sample's size and reported percentiles on
// standard error, with a warning when its p99 rests on fewer than
// minBeyond samples beyond it.
func noteTail(op string, s summary) {
	fmt.Fprintf(os.Stderr, "# %s latency: n=%d p50=%.3fms p99=%.3fms (highest supported percentile p%g)\n", op, s.N, s.P50, s.P99, s.Tail)
	if s.Tail < 99 {
		fmt.Fprintf(os.Stderr, "ssbbench: warning: %s p99 rests on fewer than %d samples beyond it\n", op, minBeyond)
	}
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// fileSize is a file's size, 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// segment is one setups-th of the measured window.
func segment(seconds float64) time.Duration {
	return time.Duration(seconds / setups * float64(time.Second))
}

// adhocResident is the ad-hoc mix against a fully resident pool with the
// result cache off.
func adhocResident(cfg runConfig) (*outcome, error) {
	return adhoc(cfg, "adhoc-resident", nil)
}

// adhocEvicting is the same mix with a pool budget of half the compressed
// file, so the working set is about twice the cache.
func adhocEvicting(cfg runConfig) (*outcome, error) {
	return adhoc(cfg, "adhoc-evicting", func(fileBytes int64) int64 { return fileBytes / 2 })
}

// adhoc runs two closed-loop clients over the ad-hoc mix on each set-up in
// turn, checking every response against the brute-force reference.
func adhoc(cfg runConfig, name string, budget func(int64) int64) (*outcome, error) {
	epoch := time.Now()
	spec := servedSpec{budget: budget, opts: server.Options{Workers: 1, CacheEntries: -1}}
	qs := adhocPlans()
	sqls := sqlTexts(qs)
	out := &outcome{ops: newLedger(), metrics: map[string]float64{}}
	m := out.metrics
	mt := &meter{epoch: epoch}
	wrong := &wrongCount{}
	var refs []*ssb.Result
	var setupS []float64
	var recs []queryRec
	for i := 0; i < setups; i++ {
		h, s, err := setUpTimed(cfg.dir, i, spec, epoch, sqls)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		if refs == nil {
			refs = references(h.data, qs)
		}
		h.data = nil
		mt.begin(h, false)
		cr := &clientRun{seg: i, h: h, epoch: epoch, seed: cfg.seed*setups + int64(i), sqls: sqls, refs: refs,
			traced: cfg.trace, deadline: mt.start.Add(segment(cfg.seconds)), ops: out.ops, wrong: wrong}
		recs = append(recs, cr.run(2)...)
		mt.end(h)
		m["disk_bytes_per_row"] = float64(fileSize(h.segPath)) / float64(h.baseRows)
		if err := h.close(); err != nil {
			return nil, err
		}
	}
	ok := succeeded(recs)
	m["setup_s"] = median(setupS)
	m["failed_ratio"] = out.ops.failedRatio()
	mt.runtimeMetrics(m, ok)
	mt.poolMetrics(m, ok)
	spans := queryMetrics(m, recs, sqls, mt, true)
	if cfg.trace {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	out.correct = wrong.count() == 0
	report(name, out)
	return out, nil
}
