package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/rowexec"
	"repro/internal/ssb"
)

// paperSF is the paper workload's scale factor: small enough that one pass
// over every cell takes under a second, so a 10 s window holds the 1,000+
// cell runs a p99 needs.
const paperSF = 0.03

// paperSystem is one system of Figure 5 or Figure 7.
type paperSystem struct {
	name     string
	cfg      core.Config
	rowStore bool
}

// paperSystems lists Figure 5's RS, RS(MV) and CS(Row-MV) and Figure 7's
// seven ablations. Figure 5's CS is Figure 7's tICL (the same
// configuration), so it runs once and reports under both names.
func paperSystems() []paperSystem {
	sys := []paperSystem{
		{name: "RS", cfg: core.RowStore(rowexec.Traditional), rowStore: true},
		{name: "RS-MV", cfg: core.RowStore(rowexec.MaterializedViews), rowStore: true},
		{name: "CS-Row-MV", cfg: core.RowMV()},
	}
	for _, c := range core.Figure7Systems() {
		sys = append(sys, paperSystem{name: c.Col.Code(), cfg: c})
	}
	return sys
}

// paperPass is one pass over every (system, query) cell.
type paperPass struct {
	cellMs  []float64                // every cell's run time
	sysMs   map[string]float64       // per system, summed over the queries
	modelIO time.Duration            // modelled disk time of the pass
	results map[string][]*ssb.Result // per system, per query
	errs    int
	seg     int // the window segment (set-up) it ran in
}

// runPass runs every cell once, systems in a seeded order.
func runPass(db *core.DB, systems []paperSystem, queries []*ssb.Query, rng *rand.Rand, ops *ledger) *paperPass {
	p := &paperPass{sysMs: map[string]float64{}, results: map[string][]*ssb.Result{}}
	for _, si := range rng.Perm(len(systems)) {
		s := systems[si]
		res := make([]*ssb.Result, len(queries))
		for qi, q := range queries {
			start := time.Now()
			r, st, err := db.Run(q.ID, s.cfg)
			d := ms(time.Since(start))
			ops.record("cell", err != nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ssbbench: %s on %s: %v\n", q.ID, s.name, err)
				p.errs++
				continue
			}
			p.cellMs = append(p.cellMs, d)
			p.sysMs[s.name] += d
			p.modelIO += st.IOTime
			res[qi] = r
		}
		p.results[s.name] = res
	}
	return p
}

// wrongCells counts the pass's results that differ from the references.
func (p *paperPass) wrongCells(refs []*ssb.Result) int {
	n := 0
	for name, res := range p.results {
		for qi, r := range res {
			if r != nil && !r.Equal(refs[qi]) {
				n++
				if n <= 3 {
					fmt.Fprintf(os.Stderr, "ssbbench: %s on %s diverges from the reference\n%s", ssb.Queries()[qi].ID, name, refs[qi].Diff(r))
				}
			}
		}
	}
	return n
}

// paperFigures builds the in-memory store setups times; each set-up (timed)
// generates the data and runs a warm-up pass that also builds the physical
// designs, then runs passes over every cell of Figures 5 and 7 for its
// share of the window.
func paperFigures(cfg runConfig) (*outcome, error) {
	systems := paperSystems()
	queries := ssb.Queries()
	rng := rand.New(rand.NewSource(cfg.seed))
	out := &outcome{ops: newLedger(), metrics: map[string]float64{}}
	m := out.metrics
	mt := &meter{epoch: time.Now()}
	var refs []*ssb.Result
	var setupS []float64
	var passes []*paperPass
	wrong := 0
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		db := core.Open(paperSF)
		warm := runPass(db, systems, queries, rng, newLedger())
		setupS = append(setupS, time.Since(start).Seconds())
		if refs == nil {
			refs = references(db.Data, queries)
		}
		wrong += warm.wrongCells(refs) + warm.errs
		mt.begin(nil, false)
		seg := segment(cfg.seconds)
		for n := 0; n == 0 || time.Since(mt.start) < seg; n++ {
			p := runPass(db, systems, queries, rng, out.ops)
			p.seg = i
			passes = append(passes, p)
		}
		mt.end(nil)
	}

	var cells []float64
	segCells := make([][]float64, setups)
	for _, p := range passes {
		cells = append(cells, p.cellMs...)
		segCells[p.seg] = append(segCells[p.seg], p.cellMs...)
		wrong += p.wrongCells(refs)
		if p.modelIO != passes[0].modelIO {
			fmt.Fprintf(os.Stderr, "ssbbench: warning: modelled I/O differs between passes (%v vs %v)\n", p.modelIO, passes[0].modelIO)
		}
	}
	q := summarize(cells)
	noteTail("cell", q)
	m["setup_s"] = median(setupS)
	m["query_p50_ms"], m["queries_per_s"] = segmentMedians(segCells, mt.segs)
	m["query_p99_ms"] = q.P99
	mt.runtimeMetrics(m, q.N)
	m["failed_ratio"] = out.ops.failedRatio()
	m["iosim.model_io_s"] = passes[0].modelIO.Seconds()

	perSys := map[string]float64{}
	var cs, rs []float64
	for _, p := range passes {
		var c, r float64
		for _, sys := range systems {
			if sys.rowStore {
				r += p.sysMs[sys.name]
			} else {
				c += p.sysMs[sys.name]
			}
		}
		cs, rs = append(cs, c/1e3), append(rs, r/1e3)
	}
	for _, sys := range systems {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p.sysMs[sys.name]
		}
		perSys[sys.name] = median(vals)
		m["paper."+sys.name+"_ms"] = perSys[sys.name]
	}
	perSys["CS"] = perSys["tICL"]
	m["paper.CS_ms"] = perSys["CS"]
	m["paper_cs_s"], m["paper_rs_s"] = median(cs), median(rs)
	m["paper.fig5_inversions"] = float64(inversions([]float64{perSys["CS"], perSys["RS-MV"], perSys["CS-Row-MV"], perSys["RS"]}, true))
	m["paper.fig7_inversions"] = float64(inversions([]float64{perSys["tICL"], perSys["tiCL"], perSys["ticL"], perSys["Ticl"]}, false))
	out.correct = wrong == 0
	report("paper-figures", out)
	return out, nil
}
