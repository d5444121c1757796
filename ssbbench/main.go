// Command ssbbench is the repository benchmark. It drives the SSBM
// reproduction from outside through its public packages: the served
// workloads run the HTTP server in-process on a loopback listener and send
// it SQL text, and the paper workload runs the paper's engines through
// core.Run. It checks every result, measures for a fixed window, and prints
// one JSON line with the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run). BENCHMARK.json at the repository root lists the
// workloads and metrics and why each exists.
//
// From the repository root, one run is
//
//	bash ssbbench/run.sh --workload adhoc-resident --seed 1 --seconds 10 --trace 0
//
// and its unit tests run with (cd ssbbench && go test ./...).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints: every workload measures
// each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics a traced run prints. A layer a workload does not
// exercise reads 0 there (BENCHMARK.json says which workload moves which).
var perLayer = []metricDef{
	{"insert_p50_ms", "ms"},
	{"insert_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"disk_bytes_per_row", "B"},
	{"paper_cs_s", "s"},
	{"paper_rs_s", "s"},
	{"http.self_ms_p50", "ms"},
	{"server.self_ms_p50", "ms"},
	{"server.admit_wait_ms_p50", "ms"},
	{"server.admit_wait_ms_p99", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.exec_ms_p99", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.insert_handler_ms_p50", "ms"},
	{"sql.parse_us_p50", "us"},
	{"exec.plan_ms_per_query", "ms"},
	{"exec.probe_ms_per_query", "ms"},
	{"exec.extract_aggregate_ms_per_query", "ms"},
	{"exec.ws_scan_ms_per_query", "ms"},
	{"exec.blocks_fetched_per_query", "count"},
	{"exec.block_skip_ratio", "ratio"},
	{"compress.decoded_mb_per_query", "MB"},
	{"compress.fold_ratio", "ratio"},
	{"segstore.hit_ratio", "ratio"},
	{"segstore.misses_per_query", "count"},
	{"segstore.evictions_per_query", "count"},
	{"segstore.read_mb_per_query", "MB"},
	{"segstore.peak_mb", "MB"},
	{"segstore.appended_mb", "MB"},
	{"exec.compactions", "count"},
	{"exec.ws_pending_rows_max", "count"},
	{"exec.flush_ms", "ms"},
	{"wal.commits_per_sync", "ratio"},
	{"wal.syncs", "count"},
	{"paper.RS_ms", "ms"},
	{"paper.RS-MV_ms", "ms"},
	{"paper.CS_ms", "ms"},
	{"paper.CS-Row-MV_ms", "ms"},
	{"paper.tICL_ms", "ms"},
	{"paper.TICL_ms", "ms"},
	{"paper.tiCL_ms", "ms"},
	{"paper.TiCL_ms", "ms"},
	{"paper.ticL_ms", "ms"},
	{"paper.TicL_ms", "ms"},
	{"paper.Ticl_ms", "ms"},
	{"iosim.model_io_s", "model-s"},
	{"paper.fig5_inversions", "count"},
	{"paper.fig7_inversions", "count"},
	{"runtime.alloc_kb_per_query", "KB"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"obs.trace_overhead_pct", "%"},
	{"bench.gen_late_ms_max", "ms"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// dir is the run's scratch directory (segment files, WAL); spans is
	// the file the traced run's spans are written to.
	dir   string
	spans string
}

// outcome is what a workload measured. metrics holds every value the
// workload computed, end-to-end and per-layer alike; the traced flag only
// selects which of them are printed.
type outcome struct {
	correct bool
	ops     *ledger
	metrics map[string]float64
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"adhoc-resident":   adhocResident,
	"adhoc-evicting":   adhocEvicting,
	"ingest-dashboard": ingestDashboard,
	"paper-figures":    paperFigures,
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: adhoc-resident, adhoc-evicting, ingest-dashboard or paper-figures")
	seed := flag.Int64("seed", 1, "workload seed: the clients' query order, the paper systems' order and the inserted rows derive from it")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ssbbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	err := os.MkdirAll(".bench_build", 0o755)
	if err == nil {
		cfg.dir, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbbench:", err)
		os.Exit(1)
	}
	cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	out, err := run(cfg)
	if rerr := os.RemoveAll(cfg.dir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbbench:", err)
		os.Exit(1)
	}
	line, err := render(out, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssbbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !out.correct {
		os.Exit(1)
	}
}

// render builds the result line: the end-to-end metrics, or the per-layer
// ones when traced. A missing end-to-end metric is a benchmark bug; a
// missing per-layer metric is a layer the workload does not exercise.
func render(out *outcome, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !traced {
			return "", errors.New("workload did not measure " + d.name)
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	a, f := out.ops.totals()
	b, err := json.Marshal(resultLine{Correct: out.correct, Attempted: a, Failed: f, Metrics: m})
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// report prints a human-readable summary of everything measured to
// standard error, so the result line stays the last line of stdout.
func report(name string, out *outcome) {
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "# %s: correct=%t\n", name, out.correct)
	for op, c := range out.ops.byOp() {
		fmt.Fprintf(os.Stderr, "#   op %-8s attempted=%d failed=%d\n", op, c[0], c[1])
	}
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "#   %-40s %g\n", k, out.metrics[k])
	}
}
