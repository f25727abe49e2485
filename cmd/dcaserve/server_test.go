package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/job/store"
	"repro/internal/stats"
)

// countingRunner counts actual simulations beneath the server's cache.
type countingRunner struct {
	mu    sync.Mutex
	calls int
}

func (c *countingRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return job.Direct{}.Run(ctx, j)
}

func (c *countingRunner) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func newTestServer(t *testing.T) (*httptest.Server, *countingRunner) {
	t.Helper()
	counting := &countingRunner{}
	ts := httptest.NewServer(newServer(store.NewMemory(0), counting, 2, queue.Options{}, limits{}).handler())
	t.Cleanup(ts.Close)
	return ts, counting
}

const tinySpec = `{"scheme":"general","benchmark":"go","warmup":100,"measure":1000}`

func postJob(t *testing.T, ts *httptest.Server, body string) (jobResponse, int) {
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
	}
	return jr, resp.StatusCode
}

// TestJobEndpoint checks the single-cell flow: a well-formed submission
// returns 200 with a digest-keyed result, and resubmitting it is a cache
// hit with a bit-identical result digest.
func TestJobEndpoint(t *testing.T) {
	ts, counting := newTestServer(t)

	cold, status := postJob(t, ts, tinySpec)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(cold.Key) != 64 {
		t.Errorf("key %q is not a hex digest", cold.Key)
	}
	if cold.Cached {
		t.Error("first submission reported cached")
	}
	if cold.Result == nil || cold.Result.IPC() <= 0 {
		t.Errorf("result missing or degenerate: %+v", cold.Result)
	}
	if cold.ResultDigest != job.ResultDigest(cold.Result) {
		t.Error("result digest does not match the result")
	}

	warm, status := postJob(t, ts, tinySpec)
	if status != http.StatusOK {
		t.Fatalf("warm status = %d", status)
	}
	if !warm.Cached {
		t.Error("second submission not served from the store")
	}
	if warm.Key != cold.Key || warm.ResultDigest != cold.ResultDigest {
		t.Errorf("warm (%s, %s) != cold (%s, %s)", warm.Key, warm.ResultDigest, cold.Key, cold.ResultDigest)
	}
	if n := counting.count(); n != 1 {
		t.Errorf("%d simulations for two identical submissions, want 1", n)
	}
}

// TestJobValidation checks bad submissions get 400s carrying the job
// layer's error text — the same message dcasim and dcabench print.
func TestJobValidation(t *testing.T) {
	ts, counting := newTestServer(t)
	for _, tc := range []struct{ name, body, wantErr string }{
		{"malformed", `{"scheme":`, "malformed job spec"},
		{"no window", `{"scheme":"general","benchmark":"go"}`, "measure must be positive"},
		{"bad scheme", `{"scheme":"nope","benchmark":"go","measure":100}`, job.ValidateScheme("nope").Error()},
		{"bad bench", `{"scheme":"general","benchmark":"nope","measure":100}`, job.ValidateBenchmark("nope").Error()},
		{"bad clusters", `{"scheme":"general","benchmark":"go","measure":100,"clusters":99}`, job.ValidateClusters(99).Error()},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
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
		t.Errorf("%d simulations ran for invalid submissions", n)
	}
}

// TestJobProbed checks the probe opt-in: a {"probe":true} submission
// returns a stall breakdown that reconciles with the result, the result
// itself is bit-identical to an unprobed submission of the same spec
// (attribution rides alongside, never inside, the digest-addressed
// result), the probed run feeds the store, and the probe counters reach
// /metrics.
func TestJobProbed(t *testing.T) {
	ts, counting := newTestServer(t)

	plain, status := postJob(t, ts, tinySpec)
	if status != http.StatusOK {
		t.Fatalf("plain status = %d", status)
	}
	if plain.Attribution != nil {
		t.Error("unprobed submission carries attribution")
	}

	probed, status := postJob(t, ts, `{"scheme":"general","benchmark":"go","warmup":100,"measure":1000,"probe":true}`)
	if status != http.StatusOK {
		t.Fatalf("probed status = %d", status)
	}
	if probed.Key != plain.Key {
		t.Errorf("probe flag changed the job key: %s vs %s", probed.Key, plain.Key)
	}
	if probed.ResultDigest != plain.ResultDigest {
		t.Error("probed result digest differs from the unprobed one (probe is not passive)")
	}
	rep := probed.Attribution
	if rep == nil {
		t.Fatal("probed submission returned no attribution")
	}
	if rep.Sum() != rep.TotalCycles || rep.TotalCycles != probed.Result.Cycles {
		t.Errorf("attribution (%d summed, %d total) does not reconcile with %d measured cycles",
			rep.Sum(), rep.TotalCycles, probed.Result.Cycles)
	}
	// The probed run simulated (it cannot be served from the store), so two
	// submissions → one cached-runner simulation + one probed one.
	if n := counting.count(); n != 1 {
		t.Errorf("cached runner simulated %d times, want 1 (probed path runs direct)", n)
	}

	// GET /v1/results serves the stored result without attribution.
	resp, err := http.Get(ts.URL + "/v1/results/" + probed.Key)
	if err != nil {
		t.Fatal(err)
	}
	var got jobResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Attribution != nil {
		t.Error("stored result carries attribution")
	}
	if got.ResultDigest != plain.ResultDigest {
		t.Error("stored result drifted after the probed run fed the store")
	}

	// The serve-path probe counters are exported.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(raw)
	if !strings.Contains(metrics, "dcaserve_probe_runs_total 1") {
		t.Error("metrics miss dcaserve_probe_runs_total 1")
	}
	if !strings.Contains(metrics, `dcaserve_probe_stall_cycles_total{class="committing"}`) {
		t.Error("metrics miss the per-class stall cycle counters")
	}
}

// TestJobCoalescing is the service's concurrency contract: many parallel
// submissions of the same job key trigger exactly one simulation, and
// every caller gets the same result.
func TestJobCoalescing(t *testing.T) {
	ts, counting := newTestServer(t)
	const parallel = 8

	var wg sync.WaitGroup
	responses := make([]jobResponse, parallel)
	statuses := make([]int, parallel)
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinySpec))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()

	if n := counting.count(); n != 1 {
		t.Errorf("%d simulations for %d concurrent identical submissions, want exactly 1", n, parallel)
	}
	for i := 1; i < parallel; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, statuses[i])
		}
		if responses[i].Key != responses[0].Key {
			t.Errorf("caller %d got key %s, caller 0 got %s", i, responses[i].Key, responses[0].Key)
		}
		if responses[i].ResultDigest != responses[0].ResultDigest {
			t.Errorf("caller %d got a different result digest", i)
		}
	}
}

// TestResultsEndpoint checks content-addressed retrieval: a stored result
// is served under its job key, unknown keys 404.
func TestResultsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	posted, _ := postJob(t, ts, tinySpec)

	resp, err := http.Get(ts.URL + "/v1/results/" + posted.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var got jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.ResultDigest != posted.ResultDigest {
		t.Errorf("served result (cached=%v, digest=%s) does not match the stored one (%s)",
			got.Cached, got.ResultDigest, posted.ResultDigest)
	}

	resp, err = http.Get(ts.URL + "/v1/results/" + strings.Repeat("00", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status = %d, want 404", resp.StatusCode)
	}
}

// TestGridEndpoint checks the batch flow: NDJSON progress events for every
// cell (base included), then a result event whose export carries jobs,
// digests and stats.
func TestGridEndpoint(t *testing.T) {
	ts, counting := newTestServer(t)
	body := `{"schemes":["modulo"],"benchmarks":["go","compress"],"warmup":100,"measure":1000}`
	resp, err := http.Post(ts.URL+"/v1/grids", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %s", ct)
	}

	var progress int
	var result *gridEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev gridEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			progress++
			if ev.Progress == nil {
				t.Fatalf("progress event without progress payload: %s", sc.Text())
			}
			if ev.Progress.Total != 4 {
				t.Errorf("progress Total = %d, want 4 (base+modulo x 2 benchmarks)", ev.Progress.Total)
			}
		case "result":
			result = &ev
		case "error":
			t.Fatalf("in-stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progress != 4 {
		t.Errorf("%d progress events, want 4", progress)
	}
	if result == nil || result.Grid == nil {
		t.Fatal("no result event")
	}
	if len(result.Grid.Cells) != 4 {
		t.Fatalf("export has %d cells, want 4", len(result.Grid.Cells))
	}
	for _, cell := range result.Grid.Cells {
		if cell.Key != cell.Job.Key() {
			t.Errorf("%s/%s: exported key does not match the job digest", cell.Job.Scheme, cell.Job.Benchmark)
		}
		if cell.ResultDigest != job.ResultDigest(cell.Result) {
			t.Errorf("%s/%s: exported result digest mismatch", cell.Job.Scheme, cell.Job.Benchmark)
		}
	}
	if n := counting.count(); n != 4 {
		t.Errorf("%d simulations, want 4", n)
	}

	// The grid populated the store: a single-job submission of one of its
	// cells must be a cache hit, not a new simulation.
	warm, _ := postJob(t, ts, `{"scheme":"modulo","benchmark":"go","warmup":100,"measure":1000}`)
	if !warm.Cached {
		t.Error("grid cell not reusable by a single-job submission")
	}
	if n := counting.count(); n != 4 {
		t.Errorf("single-job resubmission re-simulated (now %d simulations)", n)
	}

	// Grid validation failures are pre-stream 400s.
	resp, err = http.Post(ts.URL+"/v1/grids", "application/json",
		strings.NewReader(`{"schemes":["nope"],"measure":100}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid grid: status = %d, want 400", resp.StatusCode)
	}
}

// TestHealthz checks liveness and the cache counters.
func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	postJob(t, ts, tinySpec)
	postJob(t, ts, tinySpec)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Misses != 1 || h.Hits != 1 {
		t.Errorf("healthz = %+v, want ok with 1 hit / 1 miss", h)
	}
}

// BenchmarkServeThroughput measures end-to-end service throughput on the
// tiny 1k-instruction job, with GOMAXPROCS concurrent clients hammering
// one server (jobs/sec = 1e9 / ns/op):
//
//	cold — every request is a distinct job key: each op pays one full
//	       simulation through the HTTP stack.
//	warm — every request is the same key: after the first op each is a
//	       pure cache hit (store decode + HTTP).
func BenchmarkServeThroughput(b *testing.B) {
	bench := func(b *testing.B, body func(i int64) string) {
		// Silence the access log: a line per request would dominate the
		// measurement and corrupt `go test -bench` output, since the test
		// binary's stderr is merged into go test's stdout mid-line.
		prev := logf
		logf = func(string, ...any) {}
		b.Cleanup(func() { logf = prev })
		ts := httptest.NewServer(newServer(store.NewMemory(0), nil, 0, queue.Options{}, limits{}).handler())
		defer ts.Close()
		var ctr atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
					bytes.NewReader([]byte(body(ctr.Add(1)))))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
			}
		})
	}
	b.Run("cold", func(b *testing.B) {
		// A distinct Threshold per op gives every request a fresh job key
		// while keeping the simulated work essentially constant.
		bench(b, func(i int64) string {
			return fmt.Sprintf(`{"scheme":"general","benchmark":"go","warmup":100,"measure":1000,`+
				`"params":{"Threshold":%d,"Window":16,"Epoch":8192,"CriticalFraction":0.5,"IssueWidth":4}}`, i)
		})
	})
	b.Run("warm", func(b *testing.B) {
		bench(b, func(int64) string { return tinySpec })
	})
}
