package main

// Regression tests for the production-hardening layer: handler validation
// fixes (grid measure, balance params, lease batch size, progress wire
// shape, dead-stream handling), the /metrics endpoint, admission control,
// and /v1/watch.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/job/store"
	"repro/internal/stats"
)

// captureLogs swaps the logf seam for a collector for one test.
func captureLogs(t *testing.T) func() []string {
	t.Helper()
	var mu sync.Mutex
	var lines []string
	prev := logf
	logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	t.Cleanup(func() { logf = prev })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}
}

// gateRunner blocks each simulation until released, so tests can hold jobs
// in flight deterministically.
type gateRunner struct {
	entered chan string   // receives each job key as its simulation starts
	release chan struct{} // close to let every simulation finish
}

func newGateRunner() *gateRunner {
	return &gateRunner{entered: make(chan string, 16), release: make(chan struct{})}
}

func (g *gateRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	g.entered <- j.Key()
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return job.Direct{}.Run(ctx, j)
}

// TestGridValidatesMeasureLikeJobs: the grid endpoint must reject bad
// measurement windows through the same validator as every other entry
// point — identical error text, 400 before the stream starts. (A negative
// measure cannot even decode into the uint64 field: that is the
// "malformed" case, also a 400.)
func TestGridValidatesMeasureLikeJobs(t *testing.T) {
	ts, counting := newTestServer(t)
	for _, tc := range []struct{ name, body, wantErr string }{
		{"zero measure", `{"schemes":["modulo"],"warmup":100,"measure":0}`, job.ValidateMeasure(0).Error()},
		{"no window", `{"schemes":["modulo"]}`, job.ValidateMeasure(0).Error()},
		{"negative measure", `{"schemes":["modulo"],"measure":-5}`, "malformed grid spec"},
		{"negative warmup", `{"schemes":["modulo"],"warmup":-1,"measure":100}`, "malformed grid spec"},
	} {
		resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if !strings.Contains(er.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not carry %q", tc.name, er.Error, tc.wantErr)
		}
	}
	if n := counting.count(); n != 0 {
		t.Errorf("%d simulations ran for rejected grids, want 0", n)
	}
}

// TestHostileParamsRejected: an I2 window no balance scheme can run with
// gets a 400 naming the field on every route that plans a spec, before
// anything simulates, is enqueued or streams; and a valid job sent next
// to the same one-slot server still gets its 200, so a rejection holds
// no simulation slot.
func TestHostileParamsRejected(t *testing.T) {
	cell := func(w int) string {
		return fmt.Sprintf(`"warmup":0,"measure":1000,"params":{"Threshold":8,"Window":%d,"Epoch":8192,"CriticalFraction":0.5,"IssueWidth":4}`, w)
	}
	for _, route := range []struct {
		name, path string
		body       func(window int) string
	}{
		{"jobs", "/v1/jobs", func(w int) string { return `{"scheme":"general","benchmark":"go",` + cell(w) + `}` }},
		{"grids", "/v1/grids", func(w int) string { return `{"schemes":["general"],"benchmarks":["go"],` + cell(w) + `}` }},
		{"queue spec", "/v1/queue", func(w int) string { return `{"spec":{"scheme":"general","benchmark":"go",` + cell(w) + `}}` }},
		{"queue grid", "/v1/queue", func(w int) string { return `{"grid":{"schemes":["general"],"benchmarks":["go"],` + cell(w) + `}}` }},
	} {
		t.Run(route.name, func(t *testing.T) {
			counting := &countingRunner{}
			srv := newServer(store.NewMemory(0), counting, 1, queue.Options{}, limits{})
			ts := httptest.NewServer(srv.handler())
			t.Cleanup(ts.Close)
			for _, w := range []int{0, -1, job.MaxWindow + 1} {
				resp, err := http.Post(ts.URL+route.path, "application/json", strings.NewReader(route.body(w)))
				if err != nil {
					t.Fatalf("Window %d: %v", w, err)
				}
				var er errorResponse
				json.NewDecoder(resp.Body).Decode(&er)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "Window") {
					t.Errorf("Window %d: status %d, error %q; want a 400 naming Window", w, resp.StatusCode, er.Error)
				}
			}
			if n, qs := counting.count(), srv.queue.Stats(); n != 0 || qs.Enqueued != 0 {
				t.Errorf("rejected requests ran %d simulations and enqueued %d jobs, want 0 and 0", n, qs.Enqueued)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(tinySpec))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("valid job after the rejections: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("valid job after the rejections: status %d, want 200", resp.StatusCode)
			}
		})
	}
}

// TestPseudoSchemeClusterCountRejected: base and ub name fixed machines,
// so a spec asking for either on 4 clusters gets a 400 naming the scheme
// on every route that plans a spec, before anything simulates or is
// enqueued, instead of the two-cluster machine's result.
func TestPseudoSchemeClusterCountRejected(t *testing.T) {
	counting := &countingRunner{}
	srv := newServer(store.NewMemory(0), counting, 1, queue.Options{}, limits{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	for _, scheme := range []string{job.BaseScheme, job.UBScheme} {
		spec := fmt.Sprintf(`{"scheme":%q,"benchmark":"go","clusters":4,"warmup":0,"measure":1000}`, scheme)
		for _, route := range []struct{ path, body string }{
			{"/v1/jobs", spec},
			{"/v1/queue", `{"spec":` + spec + `}`},
		} {
			resp, err := http.Post(ts.URL+route.path, "application/json", strings.NewReader(route.body))
			if err != nil {
				t.Fatal(err)
			}
			var er errorResponse
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, fmt.Sprintf("%q", scheme)) {
				t.Errorf("%s on 4 clusters to %s: status %d, error %q; want a 400 naming the scheme",
					scheme, route.path, resp.StatusCode, er.Error)
			}
		}
	}
	if n, qs := counting.count(), srv.queue.Stats(); n != 0 || qs.Enqueued != 0 {
		t.Errorf("rejected requests ran %d simulations and enqueued %d jobs, want 0 and 0", n, qs.Enqueued)
	}
}

// panicRunner panics on one benchmark and simulates every other.
type panicRunner struct{ bench string }

func (p panicRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	if j.Benchmark == p.bench {
		panic("injected simulation panic")
	}
	return job.Direct{}.Run(ctx, j)
}

// TestPanickingSimulationFailsItsRequest: a simulation that panics fails
// its own request and nothing else. On a one-slot server /v1/jobs answers
// 500; the same spec sent again answers at once, so its coalescing key was
// released; a valid job then gets its 200, so the slot was released; a
// grid that reaches the panic ends its stream with an error event; and
// /healthz still answers.
func TestPanickingSimulationFailsItsRequest(t *testing.T) {
	srv := newServer(store.NewMemory(0), panicRunner{bench: "compress"}, 1, queue.Options{}, limits{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	post := func(path, body string) (int, []byte) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s %s: %v", path, body, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("POST %s %s: %v", path, body, err)
		}
		return resp.StatusCode, raw
	}
	bad := `{"scheme":"modulo","benchmark":"compress","warmup":0,"measure":500}`
	for _, attempt := range []string{"first", "repeated"} {
		if code, raw := post("/v1/jobs", bad); code != http.StatusInternalServerError || !strings.Contains(string(raw), "injected simulation panic") {
			t.Errorf("%s panicking job: status %d, body %s; want a 500 carrying the panic", attempt, code, raw)
		}
	}
	if code, raw := post("/v1/jobs", tinySpec); code != http.StatusOK {
		t.Errorf("valid job after the panics: status %d, body %s; want 200", code, raw)
	}
	code, raw := post("/v1/grids", `{"schemes":["modulo"],"benchmarks":["compress"],"warmup":0,"measure":500}`)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var last gridEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || code != http.StatusOK || last.Type != "error" {
		t.Errorf("grid over the panic: status %d, last event %q (%v); want the stream to end with an error event", code, lines[len(lines)-1], err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after the panics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the panics: status %d, want 200", resp.StatusCode)
	}
}

// TestLeaseRejectsNonPositiveMaxJobs: a zero or negative batch would
// long-poll to return nothing by construction — it must 400 immediately,
// while an over-large batch is capped, not refused.
func TestLeaseRejectsNonPositiveMaxJobs(t *testing.T) {
	ts := newQueueTestServer(t, queue.Options{})
	for _, maxJobs := range []int{0, -3} {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/leases", "application/json",
			strings.NewReader(fmt.Sprintf(`{"max_jobs":%d,"wait_ms":25000}`, maxJobs)))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("max_jobs=%d: status = %d, want 400", maxJobs, resp.StatusCode)
		}
		if !strings.Contains(er.Error, "max_jobs must be positive") {
			t.Errorf("max_jobs=%d: error %q", maxJobs, er.Error)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("max_jobs=%d: rejection took %v — it long-polled instead of failing fast", maxJobs, d)
		}
	}

	// Above the cap still works: the server trims the batch server-side.
	var lr queue.LeaseResponse
	if code := postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 10 * maxLeaseBatch}, &lr); code != http.StatusOK {
		t.Fatalf("oversized max_jobs: status %d, want 200", code)
	}
}

// TestFirstProgressEventWireShape: progress counters must survive to the
// wire even when zero. The first progress event always has remaining_ms=0
// (no timing data yet) — exactly the value the old omitempty tags dropped.
func TestFirstProgressEventWireShape(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"schemes":["modulo"],"benchmarks":["go"],"warmup":100,"measure":1000}`
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	for sc.Scan() {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		var evType string
		json.Unmarshal(raw["type"], &evType)
		if evType != "progress" {
			continue
		}
		var progress map[string]json.RawMessage
		if err := json.Unmarshal(raw["progress"], &progress); err != nil {
			t.Fatalf("progress event without object payload: %s", sc.Text())
		}
		for _, field := range []string{"scheme", "benchmark", "completed", "total", "elapsed_ms", "remaining_ms"} {
			if _, ok := progress[field]; !ok {
				t.Errorf("progress event missing %q on the wire: %s", field, sc.Text())
			}
		}
		if first {
			first = false
			if string(progress["remaining_ms"]) != "0" {
				t.Errorf("first progress event remaining_ms = %s, want the literal 0", progress["remaining_ms"])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("no progress events seen")
	}
}

// hangupWriter simulates a client that disconnects mid-stream: the first
// failAfter Write calls succeed, every later one fails like a dead socket.
// Write attempts after the first failure are counted — a correct stream
// stops emitting, so that count must stay zero.
type hangupWriter struct {
	mu                sync.Mutex
	header            http.Header
	failAfter         int
	writes            int
	failed            bool
	attemptsAfterFail int
}

func (h *hangupWriter) Header() http.Header { return h.header }
func (h *hangupWriter) WriteHeader(int)     {}
func (h *hangupWriter) Write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failed {
		h.attemptsAfterFail++
		return 0, io.ErrClosedPipe
	}
	if h.writes >= h.failAfter {
		h.failed = true
		return 0, io.ErrClosedPipe
	}
	h.writes++
	return len(p), nil
}

// TestGridStreamStopsOnClientHangup: when the connection dies mid-stream,
// the first failed emit must be logged and every later event dropped — one
// log line and zero further writes, not one failure per remaining cell.
// (A real TCP hangup also cancels r.Context() and aborts the grid, but
// whether the first or second post-hangup write notices the dead socket is
// RST-timing dependent, so the contract is pinned at the writer seam.)
func TestGridStreamStopsOnClientHangup(t *testing.T) {
	logs := captureLogs(t)
	srv := newServer(store.NewMemory(0), nil, 2, queue.Options{}, limits{})
	w := &hangupWriter{header: http.Header{}, failAfter: 1}
	body := `{"schemes":["modulo"],"benchmarks":["go","compress"],"warmup":100,"measure":1000}`
	srv.handleGrid(w, httptest.NewRequest(http.MethodPost, "/v1/grids", strings.NewReader(body)))

	count := 0
	for _, line := range logs() {
		if strings.Contains(line, "write stream event") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("%d dead-stream log lines, want exactly 1 (log first failure only)", count)
	}
	if w.attemptsAfterFail != 0 {
		t.Errorf("%d writes attempted after the stream died, want 0 (stop emitting)", w.attemptsAfterFail)
	}
	if w.writes != w.failAfter {
		t.Errorf("%d successful writes, want %d", w.writes, w.failAfter)
	}
}

// scrape fetches /metrics and parses every sample line (labels included in
// the key) into a map.
func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("metrics Content-Type = %q, want text exposition 0.0.4", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("malformed metrics value in %q: %v", line, err)
		}
		out[line[:idx]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsScrape drives a known traffic pattern and asserts every
// advertised counter family moves: store hit/miss/coalesced, queue
// depth/inflight/retries/late completions/expiries, and the per-endpoint
// HTTP histograms.
func TestMetricsScrape(t *testing.T) {
	gate := newGateRunner()
	srv := newServer(store.NewMemory(0), gate, 2, queue.Options{
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 3,
	}, limits{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// Store traffic: a miss, a hit, and a coalesced pair.
	close(gate.release) // first jobs run gate-free
	if _, code := postJobTo(t, ts, `{"scheme":"modulo","benchmark":"go","warmup":100,"measure":1000}`); code != 200 {
		t.Fatalf("cold job: %d", code)
	}
	if _, code := postJobTo(t, ts, `{"scheme":"modulo","benchmark":"go","warmup":100,"measure":1000}`); code != 200 {
		t.Fatalf("warm job: %d", code)
	}
	gate.release = make(chan struct{}) // re-arm the gate for the coalesced pair
	coalesceSpec := `{"scheme":"modulo","benchmark":"go","warmup":777,"measure":1000}`
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			postJobTo(t, ts, coalesceSpec)
		}()
	}
	<-gate.entered // the first is simulating; the second must coalesce
	time.Sleep(50 * time.Millisecond)
	close(gate.release)
	wg.Wait()

	// Queue traffic: two cells; one lease that expires (retry), a late
	// completion under the stale lease, and a nack.
	var qr queueResponse
	if code := postJSON(t, ts.URL+"/v1/queue", map[string]any{"grid": map[string]any{
		"schemes": []string{"fifo"}, "benchmarks": []string{"go", "compress"},
		"warmup": 100, "measure": 1000,
	}}, &qr); code != http.StatusAccepted {
		t.Fatalf("enqueue: %d", code)
	}
	if qr.Queued != 2 {
		t.Fatalf("queued %d, want 2", qr.Queued)
	}
	depthScrape := scrape(t, ts)

	var lease1 queue.LeaseResponse
	if code := postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 1}, &lease1); code != 200 || len(lease1.Leases) != 1 {
		t.Fatalf("first lease: %d (%d leases)", code, len(lease1.Leases))
	}
	inflightScrape := scrape(t, ts)
	time.Sleep(120 * time.Millisecond) // past the 50ms TTL: the lease expires and the job requeues

	var lease2 queue.LeaseResponse
	if code := postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 2, WaitMS: 5000}, &lease2); code != 200 || len(lease2.Leases) == 0 {
		t.Fatalf("second lease: %d (%d leases)", code, len(lease2.Leases))
	}
	// Complete the expired job under its ORIGINAL lease: a late completion.
	stale := lease1.Leases[0]
	run, err := job.Direct{}.Run(context.Background(), stale.Job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/leases/"+stale.ID+"/complete", queue.CompleteRequest{
		Key: stale.Key, Result: run, ResultDigest: job.ResultDigest(run),
	}, nil); code != 200 {
		t.Fatalf("late complete: %d", code)
	}
	// Nack one live lease on the other cell.
	for _, l := range lease2.Leases {
		if l.Key != stale.Key {
			if code := postJSON(t, ts.URL+"/v1/leases/"+l.ID+"/complete", queue.CompleteRequest{
				Key: l.Key, Error: "synthetic failure",
			}, nil); code != 200 {
				t.Fatalf("nack: %d", code)
			}
		}
	}

	m := scrape(t, ts)
	for name, min := range map[string]float64{
		"dcaserve_store_hits_total":           1,
		"dcaserve_store_misses_total":         2, // cold job + coalesce leader
		"dcaserve_store_coalesced_total":      1,
		"dcaserve_queue_enqueued_total":       2,
		"dcaserve_queue_leased_total":         2,
		"dcaserve_queue_expired_total":        1,
		"dcaserve_queue_retried_total":        1,
		"dcaserve_queue_late_completed_total": 1,
		"dcaserve_queue_nacked_total":         1,
		"dcaserve_store_results":              3,
	} {
		if m[name] < min {
			t.Errorf("%s = %v, want >= %v", name, m[name], min)
		}
	}
	if v := depthScrape["dcaserve_queue_depth"]; v < 2 {
		t.Errorf("dcaserve_queue_depth after enqueue = %v, want >= 2", v)
	}
	if v := inflightScrape["dcaserve_queue_inflight"]; v < 1 {
		t.Errorf("dcaserve_queue_inflight under lease = %v, want >= 1", v)
	}
	// Per-endpoint HTTP families, labeled by route pattern.
	if v := m[`http_requests_total{endpoint="POST /v1/jobs",code="200"}`]; v < 4 {
		t.Errorf("http_requests_total for POST /v1/jobs = %v, want >= 4", v)
	}
	if v := m[`http_request_seconds_count{endpoint="POST /v1/jobs"}`]; v < 4 {
		t.Errorf("http_request_seconds_count for POST /v1/jobs = %v, want >= 4", v)
	}
	if v := m[`http_request_seconds_bucket{endpoint="POST /v1/jobs",le="+Inf"}`]; v < 4 {
		t.Errorf("latency histogram buckets missing for POST /v1/jobs (got %v)", v)
	}
}

// postJobTo is postJob against an explicit server (the shared helper binds
// to newTestServer's).
func postJobTo(t *testing.T, ts *httptest.Server, body string) (jobResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return jr, resp.StatusCode
}

// TestRateLimiterShedsPerClient: the token bucket must 429 a client past
// its burst, carry Retry-After, and meter clients independently.
func TestRateLimiterShedsPerClient(t *testing.T) {
	srv := newServer(store.NewMemory(0), nil, 2, queue.Options{},
		limits{Rate: 0.5, Burst: 2})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	post := func(clientID string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(tinySpec))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", clientID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 2; i++ {
		if resp := post("client-a"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i+1, resp.StatusCode)
		}
	}
	resp := post("client-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Errorf("Retry-After = %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	// A different client has its own bucket.
	if resp := post("client-b"); resp.StatusCode != http.StatusOK {
		t.Errorf("fresh client throttled: status %d", resp.StatusCode)
	}
	// GET endpoints are not throttled — observability must stay reachable
	// for a client that just got shed.
	hr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("metrics throttled: status %d", hr.StatusCode)
	}
}

// TestAdmissionQueueBounds: with the simulator full and the waiting room
// full, the next job is refused with 429 + Retry-After instead of queueing
// without bound.
func TestAdmissionQueueBounds(t *testing.T) {
	gate := newGateRunner()
	srv := newServer(store.NewMemory(0), gate, 1, queue.Options{}, limits{AdmitQueue: 1})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	spec := func(i int) string {
		return fmt.Sprintf(`{"scheme":"modulo","benchmark":"go","warmup":%d,"measure":1000}`, 100+i)
	}
	results := make(chan int, 2)
	// First job occupies the one simulation slot...
	go func() { _, code := postJobTo(t, ts, spec(0)); results <- code }()
	<-gate.entered
	// ...second job fills the one waiting-room slot...
	go func() { _, code := postJobTo(t, ts, spec(1)); results <- code }()
	waitForAdmitFull(t, srv)
	// ...so the third is shed immediately.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec(2)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("admission 429 without Retry-After")
	}

	close(gate.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted job finished with %d, want 200", code)
		}
	}
	m := scrape(t, ts)
	if m["dcaserve_admission_rejected_total"] < 1 {
		t.Errorf("dcaserve_admission_rejected_total = %v, want >= 1", m["dcaserve_admission_rejected_total"])
	}
}

// waitForAdmitFull polls until the server's admission room has no free
// slot (both capacity-consuming requests are inside).
func waitForAdmitFull(t *testing.T, srv *server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.admit) < cap(srv.admit) {
		if time.Now().After(deadline) {
			t.Fatalf("admission room never filled (%d/%d)", len(srv.admit), cap(srv.admit))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// watchLine is one decoded /v1/watch NDJSON event.
func readWatch(t *testing.T, sc *bufio.Scanner, lines chan<- watchEvent) {
	for sc.Scan() {
		var ev watchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Errorf("bad watch line %q: %v", sc.Text(), err)
			return
		}
		lines <- ev
	}
	close(lines)
}

// TestWatchEndToEnd: a watch over three keys — one already cached, one
// completed by a (simulated) worker upload, one failing terminally — must
// stream done/done/failed and then the summary, without the client ever
// polling /v1/results.
func TestWatchEndToEnd(t *testing.T) {
	srv := newServer(store.NewMemory(0), nil, 2, queue.Options{MaxAttempts: 1}, limits{})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	// Key 1: already in the store before the watch starts.
	cached, code := postJobTo(t, ts, tinySpec)
	if code != 200 {
		t.Fatalf("seed job: %d", code)
	}
	// Keys 2 and 3: queued for workers.
	var qr queueResponse
	if code := postJSON(t, ts.URL+"/v1/queue", map[string]any{"grid": map[string]any{
		"schemes": []string{"fifo"}, "benchmarks": []string{"go", "compress"},
		"warmup": 100, "measure": 1000,
	}}, &qr); code != http.StatusAccepted || len(qr.Jobs) != 2 {
		t.Fatalf("enqueue: %d (%d jobs)", code, len(qr.Jobs))
	}

	keys := []string{cached.Key, qr.Jobs[0].Key, qr.Jobs[1].Key}
	resp, err := http.Get(ts.URL + "/v1/watch?keys=" + strings.Join(keys, ","))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch Content-Type = %q", ct)
	}
	lines := make(chan watchEvent, 8)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	go readWatch(t, sc, lines)
	next := func(what string) watchEvent {
		t.Helper()
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatalf("watch stream ended waiting for %s", what)
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
		panic("unreachable")
	}

	// The cached key settles from the initial sweep, before any queue work.
	if ev := next("initial done event"); ev.Type != "done" || ev.Key != cached.Key {
		t.Fatalf("first event = %+v, want done %s", ev, cached.Key)
	}

	// Worker protocol: lease both, upload one, nack the other (MaxAttempts
	// 1 makes the nack terminal).
	var lr queue.LeaseResponse
	if code := postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 2}, &lr); code != 200 || len(lr.Leases) != 2 {
		t.Fatalf("lease: %d (%d)", code, len(lr.Leases))
	}
	done, failed := lr.Leases[0], lr.Leases[1]
	run, err := job.Direct{}.Run(context.Background(), done.Job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/leases/"+done.ID+"/complete", queue.CompleteRequest{
		Key: done.Key, Result: run, ResultDigest: job.ResultDigest(run),
	}, nil); code != 200 {
		t.Fatalf("complete: %d", code)
	}
	if ev := next("worker-upload done event"); ev.Type != "done" || ev.Key != done.Key {
		t.Fatalf("upload event = %+v, want done %s", ev, done.Key)
	}
	if code := postJSON(t, ts.URL+"/v1/leases/"+failed.ID+"/complete", queue.CompleteRequest{
		Key: failed.Key, Error: "deliberate failure",
	}, nil); code != 200 {
		t.Fatalf("nack: %d", code)
	}
	if ev := next("failed event"); ev.Type != "failed" || ev.Key != failed.Key || !strings.Contains(ev.Error, "deliberate failure") {
		t.Fatalf("failure event = %+v, want failed %s with the nack reason", ev, failed.Key)
	}
	sum := next("summary")
	if sum.Type != "complete" || sum.Summary == nil || sum.Summary.Done != 2 || sum.Summary.Failed != 1 {
		t.Fatalf("summary = %+v, want complete with done=2 failed=1", sum)
	}
	if _, ok := <-lines; ok {
		t.Error("events after the summary")
	}
}

// TestWatchRejectsBadKeys: the subscription validates its keys up front.
func TestWatchRejectsBadKeys(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct{ name, query string }{
		{"no keys", ""},
		{"malformed key", "?keys=zzz"},
	} {
		resp, err := http.Get(ts.URL + "/v1/watch" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}
