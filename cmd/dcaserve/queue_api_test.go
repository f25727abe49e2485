package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/job/store"
	"repro/internal/job/worker"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// newQueueTestServer boots a server with queue tuning under test control.
func newQueueTestServer(t *testing.T, qopts queue.Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(store.NewMemory(0), nil, 2, qopts, limits{}).handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJSON posts v and decodes the response into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches url into out, returning the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// countingWorkerRunner counts per-key simulations on the worker side.
type countingWorkerRunner struct {
	mu    sync.Mutex
	calls map[string]int
	next  job.Runner
}

func newCountingWorkerRunner() *countingWorkerRunner {
	return &countingWorkerRunner{calls: map[string]int{}, next: job.Direct{}}
}

func (c *countingWorkerRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	c.mu.Lock()
	c.calls[j.Key()]++
	c.mu.Unlock()
	return c.next.Run(ctx, j)
}

func (c *countingWorkerRunner) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.calls {
		n += v
	}
	return n
}

// drainQueue polls /v1/queue/stats until the queue is empty (nothing
// pending, leased or failed) or the deadline passes.
func drainQueue(t *testing.T, ts *httptest.Server, timeout time.Duration) queue.Stats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var s queue.Stats
		if code := getJSON(t, ts.URL+"/v1/queue/stats", &s); code != http.StatusOK {
			t.Fatalf("queue stats: status %d", code)
		}
		if s.Depth == 0 && s.Inflight == 0 {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain: %+v", s)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestQueueGoldenGridEndToEnd is the distributed-correctness lock (the
// PR's acceptance test): the full golden grid — every scheme plus both
// pseudo-schemes × two benchmarks — is enqueued once, enqueued AGAIN as
// a duplicate, and drained by two concurrent worker fleets over real
// HTTP. Every result must be byte-identical (same ResultDigest) to the
// in-process engine's, and the duplicate submission must not cost a
// single extra simulation.
func TestQueueGoldenGridEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid in -short mode")
	}
	names := steer.Names()
	sort.Strings(names)
	grid := job.GridSpec{
		Schemes:    append([]string{job.BaseScheme, job.UBScheme}, names...),
		Benchmarks: []string{"go", "compress"},
		Warmup:     5_000,
		Measure:    25_000,
	}

	// In-process reference: the same grid through job.RunAll + Direct.
	jobs, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := job.RunAll(context.Background(), jobs, job.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string, len(jobs)) // key -> result digest
	for i, j := range jobs {
		want[j.Key()] = job.ResultDigest(runs[i])
	}

	ts := newQueueTestServer(t, queue.Options{})

	var qr queueResponse
	if code := postJSON(t, ts.URL+"/v1/queue", queueRequest{Grid: &grid}, &qr); code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d, want 202", code)
	}
	if qr.Queued != len(jobs) || qr.Duplicate != 0 || qr.Cached != 0 {
		t.Fatalf("enqueue = %d queued / %d dup / %d cached, want %d/0/0",
			qr.Queued, qr.Duplicate, qr.Cached, len(jobs))
	}
	// The duplicate submission: every job must dedup against the queue
	// (or the store, if a worker already finished it).
	var dup queueResponse
	postJSON(t, ts.URL+"/v1/queue", queueRequest{Grid: &grid}, &dup)
	if dup.Queued != 0 || dup.Duplicate+dup.Cached != len(jobs) {
		t.Fatalf("duplicate enqueue = %d queued / %d dup / %d cached, want 0 queued",
			dup.Queued, dup.Duplicate, dup.Cached)
	}

	// Two worker "processes" (fleets), two pull loops each, drain it.
	counting := newCountingWorkerRunner()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		f, err := worker.New(worker.Options{
			Server:  ts.URL,
			Loops:   2,
			MaxJobs: 2,
			Wait:    200 * time.Millisecond,
			Runner:  counting,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.Run(ctx)
		}()
	}

	qs := drainQueue(t, ts, 3*time.Minute)
	cancel()
	wg.Wait()

	if qs.Failed != 0 || qs.Exhausted != 0 {
		t.Fatalf("queue reports failures: %+v", qs)
	}
	if got := qs.Completed + qs.LateCompleted; got != uint64(len(jobs)) {
		t.Errorf("completions = %d, want %d", got, len(jobs))
	}

	// Every key must now be served, byte-identical to the in-process run.
	for key, digest := range want {
		var jr jobResponse
		if code := getJSON(t, ts.URL+"/v1/results/"+key, &jr); code != http.StatusOK {
			t.Fatalf("result %s: status %d", key, code)
		}
		if jr.ResultDigest != digest {
			t.Errorf("key %s: worker digest %s != in-process digest %s", key, jr.ResultDigest, digest)
		}
		if jr.Result == nil || job.ResultDigest(jr.Result) != digest {
			t.Errorf("key %s: served result does not re-digest to %s", key, digest)
		}
	}

	// Exactly-once: the duplicate grid cost nothing.
	if n := counting.total(); n != len(jobs) {
		t.Errorf("%d worker simulations, want exactly %d", n, len(jobs))
	}
}

// flakyRunner fails every job's first attempt (exercising nack → requeue)
// and succeeds afterwards.
type flakyRunner struct {
	mu    sync.Mutex
	tried map[string]bool
	calls map[string]int
}

func newFlakyRunner() *flakyRunner {
	return &flakyRunner{tried: map[string]bool{}, calls: map[string]int{}}
}

func (f *flakyRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	key := j.Key()
	f.mu.Lock()
	f.calls[key]++
	first := !f.tried[key]
	f.tried[key] = true
	f.mu.Unlock()
	if first {
		return nil, fmt.Errorf("injected first-attempt failure")
	}
	return job.Direct{}.Run(ctx, j)
}

// TestQueueFaultToleranceEndToEnd drains a grid under injected faults: a
// "crashed" worker that leases a job and never settles it (its lease must
// expire and requeue), a fleet whose runner fails every first attempt
// (nack → requeue), and a late upload from the crashed worker arriving
// after the job completed elsewhere (idempotent, never double-counted).
// Results must still be byte-identical to the in-process engine.
func TestQueueFaultToleranceEndToEnd(t *testing.T) {
	grid := job.GridSpec{
		Schemes:    []string{"modulo", "general"},
		Benchmarks: []string{"go", "compress"},
		Warmup:     100,
		Measure:    1_000,
	}
	jobs, err := grid.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, j := range jobs {
		r, err := job.Direct{}.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		want[j.Key()] = job.ResultDigest(r)
	}

	// Short TTL so the crashed worker's lease lapses fast; a generous
	// attempt budget so expiry + injected first-attempt failures cannot
	// exhaust a job.
	ts := newQueueTestServer(t, queue.Options{LeaseTTL: 300 * time.Millisecond, MaxAttempts: 10})

	var qr queueResponse
	if code := postJSON(t, ts.URL+"/v1/queue", queueRequest{Grid: &grid}, &qr); code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", code)
	}

	// The crashed worker: leases one job over raw HTTP and goes silent.
	var lr queue.LeaseResponse
	if code := postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 1}, &lr); code != http.StatusOK {
		t.Fatalf("crashed worker lease: status %d", code)
	}
	if len(lr.Leases) != 1 {
		t.Fatalf("crashed worker got %d leases, want 1", len(lr.Leases))
	}
	crashed := lr.Leases[0]

	// A real fleet with a flaky runner drains everything, the abandoned
	// job included once its lease expires.
	flaky := newFlakyRunner()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := worker.New(worker.Options{
		Server:     ts.URL,
		Loops:      2,
		Wait:       100 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
		Runner:     flaky,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = f.Run(ctx) }()

	qs := drainQueue(t, ts, time.Minute)
	cancel()
	<-done

	if qs.Failed != 0 {
		t.Fatalf("jobs parked as failed under faults: %+v", qs)
	}
	if qs.Expired == 0 {
		t.Errorf("crashed worker's lease never expired: %+v", qs)
	}
	if qs.Nacked == 0 {
		t.Errorf("flaky runner's failures never nacked: %+v", qs)
	}

	// The crashed worker wakes up and uploads its job late — the upload
	// must be accepted (or be an idempotent no-op if already stored) and
	// must not disturb the stored result.
	r, err := job.Direct{}.Run(context.Background(), crashed.Job)
	if err != nil {
		t.Fatal(err)
	}
	code := postJSON(t, ts.URL+"/v1/leases/"+crashed.ID+"/complete",
		queue.CompleteRequest{Key: crashed.Key, Result: r, ResultDigest: job.ResultDigest(r)}, nil)
	if code != http.StatusOK {
		t.Errorf("late upload from crashed worker: status %d, want 200", code)
	}

	for key, digest := range want {
		var jr jobResponse
		if code := getJSON(t, ts.URL+"/v1/results/"+key, &jr); code != http.StatusOK {
			t.Fatalf("result %s: status %d", key, code)
		}
		if jr.ResultDigest != digest {
			t.Errorf("key %s: digest %s != in-process %s under faults", key, jr.ResultDigest, digest)
		}
	}
}

// TestQueueEndpointValidation checks malformed and invalid submissions
// fail fast with the job layer's error text, before anything enqueues.
func TestQueueEndpointValidation(t *testing.T) {
	ts := newQueueTestServer(t, queue.Options{})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/queue", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, er.Error
	}
	for _, tc := range []struct{ name, body, wantErr string }{
		{"malformed", `{"spec":`, "malformed queue request"},
		{"neither", `{}`, "neither spec nor grid"},
		{"both", `{"spec":{"scheme":"modulo","benchmark":"go","measure":100},"grid":{"schemes":["modulo"],"measure":100}}`, "both spec and grid"},
		{"no window", `{"spec":{"scheme":"modulo","benchmark":"go"}}`, "measure must be positive"},
		{"bad scheme", `{"spec":{"scheme":"nope","benchmark":"go","measure":100}}`, job.ValidateScheme("nope").Error()},
		{"bad grid scheme", `{"grid":{"schemes":["nope"],"measure":100}}`, job.ValidateScheme("nope").Error()},
	} {
		code, msg := post(tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q does not carry %q", tc.name, msg, tc.wantErr)
		}
	}

	// A valid single-spec enqueue is a 202 with one queued key.
	var qr queueResponse
	code := postJSON(t, ts.URL+"/v1/queue",
		queueRequest{Spec: &job.Spec{Scheme: "modulo", Benchmark: "go", Warmup: 10, Measure: 100}}, &qr)
	if code != http.StatusAccepted || len(qr.Jobs) != 1 || qr.Queued != 1 {
		t.Fatalf("spec enqueue = status %d, %+v", code, qr)
	}
	if len(qr.Jobs[0].Key) != 64 {
		t.Errorf("key %q is not a hex digest", qr.Jobs[0].Key)
	}
}

// TestQueueComposesWithSyncPath checks the two worlds share one store: a
// synchronous /v1/jobs simulation satisfies a later enqueue of the same
// cell as "cached", and a worker-completed queue job is served to a
// synchronous /v1/jobs submission without re-simulating.
func TestQueueComposesWithSyncPath(t *testing.T) {
	ts, counting := newTestServer(t)

	// Sync first: POST /v1/jobs simulates; the queue then dedups on it.
	if _, code := postJob(t, ts, tinySpec); code != http.StatusOK {
		t.Fatalf("sync job: status %d", code)
	}
	var qr queueResponse
	spec := job.Spec{Scheme: "general", Benchmark: "go", Warmup: 100, Measure: 1000}
	postJSON(t, ts.URL+"/v1/queue", queueRequest{Spec: &spec}, &qr)
	if qr.Cached != 1 {
		t.Fatalf("enqueue after sync run = %+v, want cached", qr)
	}

	// Queue first, a worker completes, then a sync submission hits.
	spec2 := job.Spec{Scheme: "modulo", Benchmark: "compress", Warmup: 100, Measure: 1000}
	var qr2 queueResponse
	postJSON(t, ts.URL+"/v1/queue", queueRequest{Spec: &spec2}, &qr2)
	var lr queue.LeaseResponse
	postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 1}, &lr)
	if len(lr.Leases) != 1 {
		t.Fatalf("leased %d, want 1", len(lr.Leases))
	}
	l := lr.Leases[0]
	r, err := job.Direct{}.Run(context.Background(), l.Job)
	if err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/v1/leases/"+l.ID+"/complete",
		queue.CompleteRequest{Key: l.Key, Result: r, ResultDigest: job.ResultDigest(r)}, nil); code != http.StatusOK {
		t.Fatalf("complete: status %d", code)
	}
	before := counting.count()
	warm, code := postJob(t, ts, `{"scheme":"modulo","benchmark":"compress","warmup":100,"measure":1000}`)
	if code != http.StatusOK || !warm.Cached {
		t.Fatalf("sync submission after worker completion: status %d, cached %v", code, warm.Cached)
	}
	if counting.count() != before {
		t.Error("sync submission re-simulated a worker-completed job")
	}
}

// TestCompleteRejectsCorruptUpload checks the server-side digest
// verification: an upload whose claimed digest does not match the
// recomputation is a 400 and never enters the store.
func TestCompleteRejectsCorruptUpload(t *testing.T) {
	ts := newQueueTestServer(t, queue.Options{})
	spec := job.Spec{Scheme: "modulo", Benchmark: "go", Warmup: 10, Measure: 100}
	var qr queueResponse
	postJSON(t, ts.URL+"/v1/queue", queueRequest{Spec: &spec}, &qr)
	var lr queue.LeaseResponse
	postJSON(t, ts.URL+"/v1/leases", queue.LeaseRequest{MaxJobs: 1}, &lr)
	l := lr.Leases[0]

	r, err := job.Direct{}.Run(context.Background(), l.Job)
	if err != nil {
		t.Fatal(err)
	}
	code := postJSON(t, ts.URL+"/v1/leases/"+l.ID+"/complete",
		queue.CompleteRequest{Key: l.Key, Result: r, ResultDigest: strings.Repeat("0", 64)}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+l.Key, nil); code != http.StatusNotFound {
		t.Errorf("corrupt upload reached the store (result status %d)", code)
	}
	// An unknown lease is a conflict the worker resolves by walking away.
	code = postJSON(t, ts.URL+"/v1/leases/lease-999/extend", struct{}{}, nil)
	if code != http.StatusConflict {
		t.Errorf("unknown lease extend: status %d, want 409", code)
	}
}

// TestCatalogEndpoint checks capability discovery matches the registries
// and validators the planners actually use.
func TestCatalogEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var cat catalogResponse
	if code := getJSON(t, ts.URL+"/v1/catalog", &cat); code != http.StatusOK {
		t.Fatalf("catalog: status %d", code)
	}
	if !reflect.DeepEqual(cat.Schemes, steer.Names()) {
		t.Errorf("schemes = %v, want the steer registry %v", cat.Schemes, steer.Names())
	}
	if !reflect.DeepEqual(cat.Benchmarks, workload.Names()) {
		t.Errorf("benchmarks = %v, want the workload registry %v", cat.Benchmarks, workload.Names())
	}
	if !reflect.DeepEqual(cat.PseudoSchemes, []string{job.BaseScheme, job.UBScheme}) {
		t.Errorf("pseudo schemes = %v", cat.PseudoSchemes)
	}
	for _, n := range cat.Clusters {
		if err := job.ValidateClusters(n); err != nil {
			t.Errorf("catalog advertises invalid cluster count %d: %v", n, err)
		}
	}
	if len(cat.Clusters) == 0 || cat.LeaseTTLMS <= 0 {
		t.Errorf("catalog incomplete: %+v", cat)
	}
	// Every advertised (scheme, benchmark) must plan: the catalog is a
	// promise, so spot-check the full cross product at the cheapest size.
	for _, scheme := range append(append([]string{}, cat.PseudoSchemes...), cat.Schemes...) {
		for _, bench := range cat.Benchmarks {
			if _, err := (job.Spec{Scheme: scheme, Benchmark: bench, Measure: 1}).Plan(); err != nil {
				t.Errorf("advertised %s/%s does not plan: %v", scheme, bench, err)
			}
		}
	}
}
