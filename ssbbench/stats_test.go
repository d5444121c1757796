package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty sample summarized to %+v", s)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p99 needs 1,000 samples.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {999, 95}, {1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	if s := summarize(make([]float64, 999)); s.Tail >= 99 {
		t.Errorf("999 samples claim p99 support (tail p%g)", s.Tail)
	}
}

// An open-loop operation is timed from its due time, so a stall charges the
// operations queued behind it, and lateness records how far the sender fell
// behind its schedule.
func TestOpenLoopDueTime(t *testing.T) {
	const msec = time.Millisecond
	service := []time.Duration{5 * msec, 35 * msec, 5 * msec, 5 * msec, 5 * msec, 1 * msec}
	var clock time.Duration
	var prepped []int
	loop := openLoop{start: 0, period: 10 * msec}
	got := loop.run(len(service),
		func() time.Duration { return clock },
		func(d time.Duration) { clock += d },
		func(i int) { prepped = append(prepped, i) },
		func(i int) { clock += service[i] })
	want := []timing{
		{5 * msec, 0},          // due 0, sent 0, done 5
		{35 * msec, 0},         // due 10, sent 10, done 45: the stall
		{30 * msec, 25 * msec}, // due 20, sent 45, done 50
		{25 * msec, 20 * msec}, // due 30, sent 50, done 55
		{20 * msec, 15 * msec}, // due 40, sent 55, done 60
		{11 * msec, 10 * msec}, // due 50, sent 60, done 61
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(prepped) != len(service) {
		t.Errorf("prep ran %d times, want %d", len(prepped), len(service))
	}
}

func TestFailedRatioAccounting(t *testing.T) {
	timeout := errors.New("context deadline exceeded (Client.Timeout exceeded while awaiting headers)")
	for _, c := range []struct {
		status int
		err    error
		failed bool
	}{
		{http.StatusOK, nil, false},
		{http.StatusServiceUnavailable, nil, true}, // backpressure refusal
		{http.StatusUnprocessableEntity, nil, true},
		{http.StatusGatewayTimeout, nil, true},
		{0, timeout, true},                            // transport error or timeout
		{http.StatusOK, errors.New("bad json"), true}, // undecodable 200
	} {
		if got := opFailed(c.status, c.err); got != c.failed {
			t.Errorf("opFailed(%d, %v) = %t, want %t", c.status, c.err, got, c.failed)
		}
	}
	l := newLedger()
	if l.failedRatio() != 0 {
		t.Fatal("empty ledger has a failure ratio")
	}
	l.record("query", false)
	l.record("query", true)
	l.record("query", false)
	l.record("insert", true)
	a, f := l.totals()
	if a != 4 || f != 2 || l.failedRatio() != 0.5 {
		t.Errorf("totals %d/%d ratio %g, want 4/2 ratio 0.5", a, f, l.failedRatio())
	}
	if by := l.byOp(); by["query"] != [2]int64{3, 1} || by["insert"] != [2]int64{1, 1} {
		t.Errorf("per-op counts %v", by)
	}
}

func TestSelfTime(t *testing.T) {
	// A root with overlapping children, one reaching past the root's end,
	// and a grandchild that must not count against the root.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "a.1", Parent: 1, Start: 15, End: 20},
	}
	for i, want := range []int64{40, 25, 30, 30, 5} {
		if got := selfTime(spans, i); got != want {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got, want)
		}
	}

	// The request tree the traced run builds: the layers' self-times plus
	// admission wait and exec add up to the client round trip.
	req := []span{
		{Name: "http.request", Parent: -1, Start: 0, End: 1000},
		{Name: "server.handler", Parent: 0, Start: 100, End: 900},
		{Name: "server.admit_wait", Parent: 1, Start: 100, End: 150},
		{Name: "server.exec", Parent: 1, Start: 150, End: 800},
		{Name: "exec.probe", Parent: 3, Start: 150, End: 600},
		{Name: "exec.extract+aggregate", Parent: 3, Start: 600, End: 780},
	}
	httpSelf, serverSelf := selfTime(req, 0), selfTime(req, 1)
	if httpSelf != 200 || serverSelf != 100 {
		t.Errorf("http.self %d server.self %d, want 200 and 100", httpSelf, serverSelf)
	}
	if sum := httpSelf + serverSelf + 50 + 650; sum != 1000 {
		t.Errorf("layers sum to %d, want the 1000 ns round trip", sum)
	}
	if got := selfTime(req, 3); got != 20 {
		t.Errorf("exec self %d, want 20 (stages cover 630 of 650)", got)
	}
}

func TestInversions(t *testing.T) {
	if n := inversions([]float64{1, 2, 3, 4}, true); n != 0 {
		t.Errorf("sorted: %d inversions", n)
	}
	if n := inversions([]float64{1, 3, 2, 2}, true); n != 2 {
		t.Errorf("strict: %d inversions, want 2", n)
	}
	if n := inversions([]float64{1, 3, 2, 2}, false); n != 1 {
		t.Errorf("non-strict: %d inversions, want 1", n)
	}
}

// BENCHMARK.json and the benchmark agree on every workload and metric.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if len(names) != len(have) {
		t.Errorf("workloads: json %v, benchmark %v", names, have)
	}
	for i := range names {
		if i < len(have) && names[i] != have[i] {
			t.Errorf("workloads: json %v, benchmark %v", names, have)
			break
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: json lists %d metrics, benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// An untraced result must carry every end-to-end metric; a traced one
// reports a layer the workload did not exercise as 0.
func TestRender(t *testing.T) {
	out := &outcome{correct: true, ops: newLedger(), metrics: map[string]float64{"setup_s": 1}}
	out.ops.record("query", false)
	if _, err := render(out, false); err == nil {
		t.Error("untraced result rendered without its end-to-end metrics")
	}
	line, err := render(out, true)
	if err != nil {
		t.Fatal(err)
	}
	var r resultLine
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) || r.Attempted != 1 || r.Failed != 0 || !r.Correct {
		t.Errorf("traced result %s", line)
	}
}
