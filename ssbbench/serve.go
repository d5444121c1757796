package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/ssb"
)

// setups is how many times a run sets up from scratch. setup_s is the
// median set-up time, and each set-up serves one setups-th of the measured
// window, so the figures pool several independently built instances.
const setups = 3

// servedSF is the scale factor of the served workloads: 1.2M fact rows, a
// ~25 MB segment file, ~83 MB decoded.
const servedSF = 0.2

// reqHeader carries the benchmark's request ID to its handler wrapper.
const reqHeader = "X-Bench-Req"

// servedSpec configures one served workload's set-up.
type servedSpec struct {
	// budget derives the buffer-pool budget from the segment file's size
	// (0 is unbounded).
	budget func(fileBytes int64) int64
	opts   server.Options
	// wal attaches a write-ahead log in the run directory.
	wal bool
}

// harness is one served set-up: a segment store written from generated
// data, the server over it, and an HTTP listener on loopback whose handler
// is wrapped by the benchmark's clock.
type harness struct {
	sdb      *core.DB
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	url      string
	client   *http.Client
	clock    *handlerClock
	segPath  string
	walPath  string
	// data is the generated dataset, kept only until the references are
	// computed; baseRows is its fact row count.
	data     *ssb.Data
	baseRows int64
}

// handlerClock times the server's ServeHTTP for requests that carry a
// benchmark request ID: the server.handler span.
type handlerClock struct {
	epoch time.Time
	mu    sync.Mutex
	spans map[string][2]int64 // guarded by mu: request ID -> start, end ns
}

func (c *handlerClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Since(c.epoch)
		h.ServeHTTP(w, r)
		end := time.Since(c.epoch)
		c.mu.Lock()
		c.spans[id] = [2]int64{int64(start), int64(end)}
		c.mu.Unlock()
	})
}

func (c *handlerClock) get(id string) ([2]int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.spans[id]
	return s, ok
}

// setUpServed generates the dataset, writes it as a segment file, opens the
// store and the server, and starts the loopback listener.
func setUpServed(dir string, idx int, spec servedSpec, epoch time.Time) (*harness, error) {
	d := ssb.Generate(servedSF)
	h := &harness{
		data:     d,
		baseRows: int64(d.NumLineorders()),
		segPath:  filepath.Join(dir, fmt.Sprintf("ssb-%d.seg", idx)),
		clock:    &handlerClock{epoch: epoch, spans: map[string][2]int64{}},
	}
	if err := exec.SaveSegments(h.segPath, d.SF, core.OpenData(d).ColumnDB(true)); err != nil {
		return nil, err
	}
	fi, err := os.Stat(h.segPath)
	if err != nil {
		return nil, err
	}
	var budget int64
	if spec.budget != nil {
		budget = spec.budget(fi.Size())
	}
	h.sdb, err = core.OpenSegmentStore(h.segPath, budget)
	if err != nil {
		return nil, err
	}
	opts := spec.opts
	if spec.wal {
		h.walPath = filepath.Join(dir, fmt.Sprintf("wal-%d.log", idx))
		opts.WALPath = h.walPath
	}
	h.srv, err = server.New(h.sdb, opts)
	if err != nil {
		_ = h.sdb.SegmentStore().Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = h.srv.Close()
		_ = h.sdb.SegmentStore().Close()
		return nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.clock.wrap(h.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	h.serveErr = make(chan error, 1)
	go func() { h.serveErr <- h.hs.Serve(ln) }()
	h.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return h, nil
}

// close stops the listener, the server (flushing any write store) and the
// store, and waits for the serving goroutine to exit.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	h.client.CloseIdleConnections()
	if cerr := h.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := h.sdb.SegmentStore().Close(); err == nil {
		err = cerr
	}
	return err
}

// queryRequest and queryResponse mirror the server's /query JSON.
type queryRequest struct {
	SQL   string `json:"sql"`
	Trace bool   `json:"trace,omitempty"`
}

type queryResponse struct {
	Rows []struct {
		Keys []string `json:"keys"`
		Aggs []int64  `json:"aggs"`
	} `json:"rows"`
	Cached bool       `json:"cached"`
	WaitNs int64      `json:"wait_ns"`
	CPUNs  int64      `json:"cpu_ns"`
	Trace  *obs.Trace `json:"trace"`
}

// result converts the response rows to a canonical result; ok is false
// when a row carries no aggregate.
func (r *queryResponse) result() (*ssb.Result, bool) {
	rows := make([]ssb.ResultRow, len(r.Rows))
	for i, row := range r.Rows {
		if len(row.Aggs) == 0 {
			return nil, false
		}
		rows[i] = ssb.MakeRow(row.Keys, row.Aggs)
	}
	return ssb.NewResult("", rows), true
}

// post sends one JSON request and decodes a 200 response into out. It
// returns the status (0 on a transport error).
func (h *harness) post(path string, body any, id string, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return h.postRaw(path, b, id, out)
}

// postRaw is post with the body already encoded.
func (h *harness) postRaw(path string, b []byte, id string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodPost, h.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(reqHeader, id)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	// Read to the end of the response (the decoder stops after the JSON
	// value), so the round trip ends with the response and the connection
	// is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// warm runs every SQL text once, serially; any failure fails the set-up.
func (h *harness) warm(sqls []string) error {
	for _, s := range sqls {
		var out queryResponse
		if status, err := h.post("/query", queryRequest{SQL: s}, "", &out); opFailed(status, err) {
			return fmt.Errorf("warm-up query failed (status %d, %v): %s", status, err, s)
		}
	}
	return nil
}
