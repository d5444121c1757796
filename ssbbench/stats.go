package main

import (
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark treats that percentile as measured rather than guessed.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. xs must be sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	return xs[rank(len(xs), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps float error in p*n/100 from pushing an exact rank up.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// beyond is how many of n samples lie strictly beyond the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLadder lists the percentiles the benchmark may report as a tail, low
// to high.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.99}

// highestSupported returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it, or 0 when even the median lacks
// that support.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// summary is a latency distribution reduced to what the benchmark reports.
type summary struct {
	N   int
	P50 float64
	P99 float64
	// Tail is the highest percentile the sample supports (highestSupported);
	// a P99 with Tail below 99 rests on fewer than minBeyond samples.
	Tail float64
}

// summarize sorts xs in place and reduces it. An empty sample gives the
// zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	return summary{
		N:    len(xs),
		P50:  percentile(xs, 50),
		P99:  percentile(xs, 99),
		Tail: highestSupported(len(xs)),
	}
}

// segmentMedians reduces a window split into segments: the median over
// segments of each segment's p50, and of its rate (samples per second). A
// median of three set-ups shrugs off one disturbed segment, which pooling
// would not.
func segmentMedians(lat [][]float64, elapsed []time.Duration) (p50, rate float64) {
	var p50s, rates []float64
	for i, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		p50s = append(p50s, percentile(sortedCopy(xs), 50))
		rates = append(rates, float64(len(xs))/elapsed[i].Seconds())
	}
	if len(p50s) == 0 {
		return 0, 0
	}
	return median(p50s), median(rates)
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a non-empty sample (nearest rank), leaving xs unsorted.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// opFailed reports whether one HTTP operation counts as failed: a transport
// error (timeouts included) or any status but 200 (503 backpressure
// included).
func opFailed(status int, err error) bool {
	return err != nil || status != http.StatusOK
}

// ledger counts attempted and failed operations per operation type. Safe
// for concurrent use.
type ledger struct {
	mu  sync.Mutex
	ops map[string]*[2]int64 // guarded by mu: attempted, failed
}

func newLedger() *ledger { return &ledger{ops: map[string]*[2]int64{}} }

// record counts one attempt of op, failed or not.
func (l *ledger) record(op string, failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.ops[op]
	if c == nil {
		c = new([2]int64)
		l.ops[op] = c
	}
	c[0]++
	if failed {
		c[1]++
	}
}

// totals sums attempts and failures over every operation type.
func (l *ledger) totals() (attempted, failed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.ops {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

// byOp returns a copy of the per-operation counts.
func (l *ledger) byOp() map[string][2]int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][2]int64, len(l.ops))
	for op, c := range l.ops {
		out[op] = *c
	}
	return out
}

// failedRatio is failed over attempted operations (0 with no attempts).
func (l *ledger) failedRatio() float64 {
	a, f := l.totals()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// openLoop is a fixed send schedule: operation i is due at start + i*period.
// One sender works through it in order, so an operation is sent at its due
// time or, when the previous one returned late, as soon as it returns.
type openLoop struct {
	start  time.Duration
	period time.Duration
}

// timing is one open-loop operation's latency, counted from its due time
// (so a stall also charges the operations queued behind it), and how late
// the generator sent it.
type timing struct {
	Latency time.Duration
	Late    time.Duration
}

// run issues n operations on the schedule. now reads the clock and sleep
// waits (both injectable for tests); prep readies operation i before the
// sender waits for its due time, and do performs it.
func (o openLoop) run(n int, now func() time.Duration, sleep func(time.Duration), prep, do func(i int)) []timing {
	out := make([]timing, n)
	for i := 0; i < n; i++ {
		prep(i)
		due := o.start + time.Duration(i)*o.period
		if wait := due - now(); wait > 0 {
			sleep(wait)
		}
		sent := now()
		do(i)
		out[i] = timing{Latency: now() - due, Late: sent - due}
	}
	return out
}

// inversions counts the adjacent pairs of vals that break the expected
// ascending order: a pair is out of order when the later value is smaller,
// or, with strict, when it is not larger.
func inversions(vals []float64, strict bool) int {
	n := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] || (strict && vals[i] == vals[i-1]) {
			n++
		}
	}
	return n
}

// span is one timed step of a request. The spans of one request share Req
// and are written together; Parent indexes the causing span among them (-1
// for a root). Times are nanoseconds since the run started.
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTime is span i's duration minus the part of its interval that its
// children cover (children clipped to the parent; overlapping children
// counted once).
func selfTime(spans []span, i int) int64 {
	p := spans[i]
	var iv [][2]int64
	for _, c := range spans {
		if c.Parent != i {
			continue
		}
		s, e := max(c.Start, p.Start), min(c.End, p.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curS, curE int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curS, curE, open = v[0], v[1], true
		case v[0] <= curE:
			curE = max(curE, v[1])
		default:
			covered += curE - curS
			curS, curE = v[0], v[1]
		}
	}
	if open {
		covered += curE - curS
	}
	return p.End - p.Start - covered
}
