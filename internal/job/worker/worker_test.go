package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/stats"
)

// stubServer is a minimal in-test dcaserve: it hands out scripted leases
// and records every extend, complete and nack. (The real-server
// integration lives in cmd/dcaserve's end-to-end tests; this stub pins
// the worker's own protocol behavior — heartbeats, drain, nacks —
// without a simulator in the loop.)
type stubServer struct {
	mu        sync.Mutex
	leases    []queue.Lease // handed out one per poll
	extends   map[string]int
	completes map[string]*stats.Run
	nacks     map[string]string
	polls     int
}

func newStubServer() *stubServer {
	return &stubServer{
		extends:   map[string]int{},
		completes: map[string]*stats.Run{},
		nacks:     map[string]string{},
	}
}

func (s *stubServer) addLease(t *testing.T, id string, ttl time.Duration) job.Job {
	t.Helper()
	j, err := job.Spec{Scheme: "modulo", Benchmark: "go", Warmup: 10, Measure: 100}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.leases = append(s.leases, queue.Lease{
		ID: id, Key: j.Key(), Job: j, Deadline: time.Now().Add(ttl), Attempt: 1,
	})
	s.mu.Unlock()
	return j
}

func (s *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/leases", func(w http.ResponseWriter, r *http.Request) {
		var req queue.LeaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.MaxJobs <= 0 {
			req.MaxJobs = 1
		}
		s.mu.Lock()
		s.polls++
		var out []queue.Lease
		if n := min(req.MaxJobs, len(s.leases)); n > 0 {
			out, s.leases = s.leases[:n], s.leases[n:]
		}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(queue.LeaseResponse{Leases: out, LeaseTTLMS: 300})
	})
	mux.HandleFunc("POST /v1/leases/{id}/extend", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.extends[r.PathValue("id")]++
		s.mu.Unlock()
		w.Write([]byte("{}"))
	})
	mux.HandleFunc("POST /v1/leases/{id}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req queue.CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		id := r.PathValue("id")
		if req.Error != "" {
			s.nacks[id] = req.Error
			w.Write([]byte("{}"))
			return
		}
		if got := job.ResultDigest(req.Result); got != req.ResultDigest {
			http.Error(w, `{"error":"digest mismatch"}`, http.StatusBadRequest)
			return
		}
		s.completes[id] = req.Result
		w.Write([]byte("{}"))
	})
	return mux
}

// slowRunner stretches each simulation so heartbeats have time to fire.
type slowRunner struct{ d time.Duration }

func (s slowRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	time.Sleep(s.d)
	return job.Direct{}.Run(ctx, j)
}

// start runs the fleet until the returned stop is called; stop cancels
// the context and waits for Run to return. Run drains its loops, so every
// job's completion or failure is counted in Metrics once stop returns.
func start(t *testing.T, f *Fleet) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	return func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run did not return after cancel")
		}
	}
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWorkerCompletesAndHeartbeats checks the happy path: a leased job
// whose simulation outlives a short TTL is heartbeat-extended and its
// verified result uploaded.
func TestWorkerCompletesAndHeartbeats(t *testing.T) {
	stub := newStubServer()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	stub.addLease(t, "lease-1", 300*time.Millisecond)

	f, err := New(Options{
		Server: ts.URL,
		Loops:  1,
		Wait:   50 * time.Millisecond,
		Runner: slowRunner{d: 400 * time.Millisecond},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, f)

	waitFor(t, 5*time.Second, func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return len(stub.completes) == 1
	}, "completion upload")
	stop()

	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.extends["lease-1"] == 0 {
		t.Error("no heartbeat for a simulation longer than the lease TTL")
	}
	if stub.completes["lease-1"] == nil {
		t.Error("no result uploaded under the lease")
	}
	if m := f.Metrics(); m.Completed != 1 {
		t.Errorf("metrics = %+v, want 1 completed", m)
	}
}

// TestWorkerHeartbeatsWholeBatch checks every lease in a batch is
// extended from the moment it arrives: a job queued behind the one
// currently simulating must not lapse while it waits its turn.
func TestWorkerHeartbeatsWholeBatch(t *testing.T) {
	stub := newStubServer()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	stub.addLease(t, "lease-1", 300*time.Millisecond)
	stub.addLease(t, "lease-2", 300*time.Millisecond)

	f, err := New(Options{
		Server:  ts.URL,
		Loops:   1,
		MaxJobs: 2,
		Wait:    50 * time.Millisecond,
		Runner:  slowRunner{d: 400 * time.Millisecond},
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, f)

	waitFor(t, 10*time.Second, func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return len(stub.completes) == 2
	}, "both completions")
	stop()

	stub.mu.Lock()
	defer stub.mu.Unlock()
	// Job 2 waited ~400ms behind job 1 on a 300ms lease: only a
	// heartbeat started at batch arrival keeps it alive that long.
	if stub.extends["lease-2"] == 0 {
		t.Error("the queued-behind lease was never heartbeated while waiting its turn")
	}
	if stub.extends["lease-1"] == 0 {
		t.Error("the active lease was never heartbeated")
	}
}

// TestWorkerNacksFailures checks a simulation error is reported as a nack
// under the lease, not silently dropped.
func TestWorkerNacksFailures(t *testing.T) {
	stub := newStubServer()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	stub.addLease(t, "lease-1", time.Minute)

	f, err := New(Options{
		Server: ts.URL,
		Loops:  1,
		Wait:   50 * time.Millisecond,
		Runner: runnerFunc(func(ctx context.Context, j job.Job) (*stats.Run, error) {
			return nil, fmt.Errorf("injected failure")
		}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, f)

	waitFor(t, 5*time.Second, func() bool {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		return len(stub.nacks) == 1
	}, "nack")
	stop()

	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.nacks["lease-1"] != "injected failure" {
		t.Errorf("nack reason = %q", stub.nacks["lease-1"])
	}
	if m := f.Metrics(); m.Failed != 1 || m.Completed != 0 {
		t.Errorf("metrics = %+v, want 1 failed", m)
	}
}

// TestWorkerDrainFinishesInflight checks cancellation mid-simulation
// still uploads the result: a drain never strands a held lease.
func TestWorkerDrainFinishesInflight(t *testing.T) {
	stub := newStubServer()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	stub.addLease(t, "lease-1", time.Minute)

	started := make(chan struct{})
	f, err := New(Options{
		Server: ts.URL,
		Loops:  1,
		Wait:   50 * time.Millisecond,
		Runner: runnerFunc(func(ctx context.Context, j job.Job) (*stats.Run, error) {
			close(started)
			time.Sleep(200 * time.Millisecond)
			return job.Direct{}.Run(ctx, j)
		}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	<-started
	cancel() // drain while the job is mid-simulation
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after drain")
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.completes["lease-1"] == nil {
		t.Error("drain dropped an in-flight job instead of uploading it")
	}
}

// TestWorkerBacksOffWhenIdle checks an empty queue is polled with
// jittered backoff rather than hammered.
func TestWorkerBacksOffWhenIdle(t *testing.T) {
	stub := newStubServer()
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	f, err := New(Options{
		Server:     ts.URL,
		Loops:      1,
		Wait:       time.Millisecond,
		MaxBackoff: 300 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	f.Run(ctx)

	stub.mu.Lock()
	polls := stub.polls
	stub.mu.Unlock()
	// 500ms of idling with ~doubling backoff from 100ms: a handful of
	// polls. No backoff would mean hundreds.
	if polls > 10 {
		t.Errorf("%d polls in 500ms of empty queue — backoff is not working", polls)
	}
	if m := f.Metrics(); m.EmptyPolls == 0 {
		t.Error("no empty polls recorded")
	}
}

// runnerFunc adapts a function to job.Runner.
type runnerFunc func(ctx context.Context, j job.Job) (*stats.Run, error)

func (f runnerFunc) Run(ctx context.Context, j job.Job) (*stats.Run, error) { return f(ctx, j) }

// TestWorkerSendsClientID: every request — lease, complete, extend —
// carries the configured X-Client-ID so the server can attribute and
// rate-limit the worker by name.
func TestWorkerSendsClientID(t *testing.T) {
	var mu sync.Mutex
	ids := map[string]string{} // path -> header seen
	stub := newStubServer()
	stub.addLease(t, "lease-1", time.Minute)
	inner := stub.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids[r.URL.Path] = r.Header.Get("X-Client-ID")
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	f, err := New(Options{Server: ts.URL, Loops: 1, ClientID: "worker-7", Wait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := start(t, f)
	waitFor(t, 5*time.Second, func() bool { return f.Metrics().Completed == 1 }, "completion")
	stop()

	mu.Lock()
	defer mu.Unlock()
	for path, id := range ids {
		if id != "worker-7" {
			t.Errorf("%s: X-Client-ID = %q, want worker-7", path, id)
		}
	}
	if _, ok := ids["/v1/leases"]; !ok {
		t.Error("no lease request observed")
	}
}
