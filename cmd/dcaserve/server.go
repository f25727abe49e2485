package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/job/store"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// server is the simulation service: it plans submitted cells into
// canonical jobs and dispatches them through one shared coalescing,
// store-backed runner — so identical cells, whether submitted alone,
// inside a grid, or by N clients at once, are simulated exactly once.
type server struct {
	st          store.Store
	runner      *store.Cached
	queue       *queue.Queue
	parallelism int
	// sem bounds concurrent single-job simulations across all /v1/jobs
	// requests (grids bound their own worker pools): N clients posting N
	// distinct expensive cells queue here instead of pinning N cores.
	sem chan struct{}
	// admit is the bounded waiting room in front of sem: a /v1/jobs
	// request takes an admit slot (non-blocking — full means 429) before
	// it may wait on sem, so the line outside the simulator has a fixed
	// length instead of growing with the herd.
	admit   chan struct{}
	limiter *rateLimiter // nil = rate limiting off
	watch   *watchHub
	metrics *serverMetrics
}

// newServer builds a server over st; next is the underlying executor (nil
// means job.Direct{} — tests inject counting or failing runners).
// parallelism bounds each grid's worker pool and the total concurrent
// single-job simulations (0 = all cores). qopts tunes the distributed
// queue (lease TTL, attempt budget); its Results store is always this
// server's st — wrapped in store.Notify so the watch hub hears every
// completion — and its OnFailed hook feeds the hub too. lim configures
// admission control (zero values: limiter off, default waiting room).
func newServer(st store.Store, next job.Runner, parallelism int, qopts queue.Options, lim limits) *server {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	hub := newWatchHub()
	notifying := store.NewNotify(st, hub.done)
	qopts.Results = notifying
	qopts.OnFailed = hub.failed
	admitQueue := lim.AdmitQueue
	if admitQueue <= 0 {
		admitQueue = 4 * parallelism
	}
	s := &server{
		st:          notifying,
		runner:      store.NewCached(notifying, next),
		queue:       queue.New(qopts),
		parallelism: parallelism,
		sem:         make(chan struct{}, parallelism),
		admit:       make(chan struct{}, parallelism+admitQueue),
		watch:       hub,
	}
	if lim.Rate > 0 {
		s.limiter = newRateLimiter(lim.Rate, lim.Burst, time.Now)
	}
	s.initMetrics()
	return s
}

// handler routes the v1 API. Every route is wrapped in the per-endpoint
// metrics middleware; the submission endpoints additionally pass the
// per-client rate limiter; the whole mux emits one structured access-log
// line per request (the outermost wrapper, so 404s are logged too).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc, throttled bool) {
		var wrapped http.Handler = h
		if throttled {
			wrapped = s.throttle(pattern, wrapped)
		}
		mux.Handle(pattern, s.metrics.httpm.Handler(pattern, wrapped))
	}
	route("GET /healthz", s.handleHealth, false)
	route("GET /metrics", s.handleMetrics, false)
	route("GET /v1/catalog", s.handleCatalog, false)
	route("POST /v1/jobs", s.handleJob, true)
	route("POST /v1/grids", s.handleGrid, true)
	route("GET /v1/results/{key}", s.handleResult, false)
	route("GET /v1/watch", s.handleWatch, false)
	route("POST /v1/queue", s.handleQueue, true)
	route("GET /v1/queue/stats", s.handleQueueStats, false)
	// The lease protocol is never throttled: a worker's heartbeat or
	// upload refused with 429 would requeue finished work.
	route("POST /v1/leases", s.handleLease, false)
	route("POST /v1/leases/{id}/complete", s.handleComplete, false)
	route("POST /v1/leases/{id}/extend", s.handleExtend, false)
	return obs.AccessLog(mux, func(format string, args ...any) { logf(format, args...) })
}

// jobSubmission is the POST /v1/jobs request body: a job spec plus the
// probe opt-in.
type jobSubmission struct {
	job.Spec
	// Probe attaches a cycle-attribution probe to this submission's
	// simulation. The stall breakdown comes back in the response's
	// attribution field — alongside the digest-addressed result, never
	// inside it, so the stored result stays bit-identical to an unprobed
	// run's.
	Probe bool `json:"probe"`
}

// jobResponse is the reply to POST /v1/jobs and GET /v1/results/{key}.
type jobResponse struct {
	// Key is the job's content digest — the handle GET /v1/results serves
	// the result under.
	Key string `json:"key"`
	// Cached reports whether the result was served straight from the
	// store (false on submissions that simulated or coalesced onto an
	// in-flight simulation; always true from /v1/results).
	Cached bool `json:"cached"`
	// ElapsedMS is the server-side handling time of this request.
	ElapsedMS    float64    `json:"elapsed_ms"`
	Result       *stats.Run `json:"result"`
	ResultDigest string     `json:"result_digest"`
	// Attribution is the stall breakdown of a probed submission; absent
	// otherwise (GET /v1/results never carries one — attribution needs a
	// live machine and is not stored).
	Attribution *probe.Report `json:"attribution,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// logf is the server's log sink (a seam so tests can capture it).
var logf = log.Printf

// writeJSON encodes v onto w. By the time Encode runs the status line is
// on the wire, so an encode error cannot change the response — but it
// must not vanish either: it is logged and returned so handlers that care
// (none need to today) can see the response was truncated. The usual
// cause is the client hanging up mid-body.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		logf("dcaserve: write response (status %d): %v", status, err)
		return err
	}
	return nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// ndjsonStream writes one JSON value per line to a streaming response,
// with writeJSON's log-and-stop contract adapted to streams: the first
// encode failure (almost always the client hanging up mid-stream) is
// logged once, and every later emit is dropped instead of encoding and
// flushing into a dead connection. Not safe for concurrent emits — stream
// handlers already serialize theirs (grid progress callbacks run under the
// pool's mutex and the final event after the pool drains).
type ndjsonStream struct {
	enc     *json.Encoder
	flusher http.Flusher
	dead    bool
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	// Commit the status and flush headers now, before the first event:
	// callers only construct the stream once validation has passed, and a
	// client must be able to learn its request was accepted even when the
	// first event is minutes away.
	flusher, _ := w.(http.Flusher)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	return &ndjsonStream{enc: json.NewEncoder(w), flusher: flusher}
}

// emit writes one event line and flushes it to the client.
func (s *ndjsonStream) emit(v any) {
	if s.dead {
		return
	}
	if err := s.enc.Encode(v); err != nil {
		s.dead = true
		logf("dcaserve: write stream event: %v", err)
		return
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	m := s.runner.Metrics()
	qs := s.queue.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"results":        s.st.Len(),
		"hits":           m.Hits,
		"misses":         m.Misses,
		"coalesced":      m.Coalesced,
		"queue_depth":    qs.Depth,
		"queue_inflight": qs.Inflight,
	})
}

// catalogResponse is the reply to GET /v1/catalog: everything a worker or
// client needs to build valid submissions without hard-coding names. The
// lists come from the same registries and validators the planners use, so
// the catalog cannot drift from what the server accepts.
type catalogResponse struct {
	// Schemes are the registered steering schemes; PseudoSchemes are the
	// reference machines (base, ub) that are valid in specs but are not
	// steering rules.
	Schemes       []string `json:"schemes"`
	PseudoSchemes []string `json:"pseudo_schemes"`
	Benchmarks    []string `json:"benchmarks"`
	// Clusters lists every cluster count job.ValidateClusters accepts (0
	// selects the paper's asymmetric two-cluster machine).
	Clusters []int `json:"clusters"`
	// DefaultParams are the balance constants used when a spec omits
	// params.
	DefaultParams steer.Params `json:"default_params"`
	// LeaseTTLMS and MaxLeaseWaitMS describe the queue's lease protocol
	// for workers.
	LeaseTTLMS     int64 `json:"lease_ttl_ms"`
	MaxLeaseWaitMS int64 `json:"max_lease_wait_ms"`
}

// handleCatalog reports the server's capabilities.
func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	clusters := make([]int, 0, config.MaxClusters+1)
	for n := 0; n <= config.MaxClusters; n++ {
		if job.ValidateClusters(n) == nil {
			clusters = append(clusters, n)
		}
	}
	writeJSON(w, http.StatusOK, catalogResponse{
		Schemes:        steer.Names(),
		PseudoSchemes:  []string{job.BaseScheme, job.UBScheme},
		Benchmarks:     workload.Names(),
		Clusters:       clusters,
		DefaultParams:  steer.DefaultParams(),
		LeaseTTLMS:     s.queue.LeaseTTL().Milliseconds(),
		MaxLeaseWaitMS: maxLeaseWait.Milliseconds(),
	})
}

// handleJob runs one cell: plan the spec, consult the store, simulate on
// a miss (coalescing with any identical in-flight submission).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var sub jobSubmission
	if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job spec: %w", err))
		return
	}
	j, err := sub.Spec.Plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Enter the bounded waiting room first: when even the line is full,
	// shed the request now with 429 + Retry-After instead of parking an
	// unbounded herd on the semaphore.
	select {
	case s.admit <- struct{}{}:
	default:
		s.metrics.admissionRejected.Inc()
		writeRetryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("admission queue full (%d requests admitted or waiting)", cap(s.admit)))
		return
	}
	defer func() { <-s.admit }()
	// Acquire a simulation slot (callers can give up while queued; store
	// hits inside the runner still pay the queue, which is what keeps a
	// thundering herd of distinct expensive jobs bounded).
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, r.Context().Err())
		return
	}
	var (
		run    *stats.Run
		rep    *probe.Report
		cached bool
	)
	if sub.Probe {
		// A probed submission always simulates — attribution needs a live
		// machine, and the store holds results only. The result is
		// bit-identical to an unprobed run's (the probe layer's passivity
		// contract), so it feeds the digest-addressed store exactly like a
		// cache miss would; attribution rides the response and is never
		// stored.
		run, rep, err = job.RunWithAttribution(r.Context(), j)
		if err == nil {
			s.metrics.probeRuns.Inc()
			for _, b := range rep.Buckets {
				if b.Cycles > 0 {
					s.metrics.probeStallCycles.With(b.Class).Add(float64(b.Cycles))
				}
			}
			if perr := s.st.Put(j.Key(), run); perr != nil {
				logf("dcaserve: store probed result %s: %v", j.Key(), perr)
			}
		}
	} else {
		var outcome store.Outcome
		run, outcome, err = s.runner.RunWithOutcome(r.Context(), j)
		cached = outcome == store.OutcomeHit
	}
	<-s.sem
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, jobResponse{
		Key:          j.Key(),
		Cached:       cached,
		ElapsedMS:    float64(time.Since(started).Microseconds()) / 1e3,
		Result:       run,
		ResultDigest: job.ResultDigest(run),
		Attribution:  rep,
	})
}

// gridEvent is one NDJSON line of a /v1/grids response: progress events
// while the grid runs, then a final result (or error) event. The progress
// counters live in a pointer sub-struct rather than omitempty scalars:
// legitimate zeros (remaining_ms of 0 on the first cell before an ETA
// exists) must reach the wire, and presence-of-progress is signaled by the
// sub-object, not by which fields survived omitempty.
type gridEvent struct {
	Type string `json:"type"` // "progress" | "result" | "error"
	// Progress payload, set on "progress" events only.
	Progress *gridProgress `json:"progress,omitempty"`
	// Result payload.
	Grid *experiments.Export `json:"grid,omitempty"`
	// Error payload.
	Error string `json:"error,omitempty"`
}

// gridProgress is one completed cell's progress snapshot. No omitempty on
// any field: a zero is data here ("completed":0 never occurs, but
// "remaining_ms":0 does, on every first event).
type gridProgress struct {
	Scheme      string  `json:"scheme"`
	Benchmark   string  `json:"benchmark"`
	Completed   int     `json:"completed"`
	Total       int     `json:"total"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	RemainingMS float64 `json:"remaining_ms"`
}

// handleGrid runs a whole scheme × benchmark batch and streams progress:
// the response is NDJSON — one "progress" event per completed cell as it
// lands, then one "result" event carrying the full grid export (jobs,
// digests, per-cell stats). The base pseudo-scheme is always included,
// mirroring the experiments engine.
func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var spec job.GridSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed grid spec: %w", err))
		return
	}
	// Validate up front, while the status code is still writable — once
	// the stream starts, failures degrade to in-stream error events.
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	stream := newNDJSONStream(w)
	emit := func(ev gridEvent) { stream.emit(ev) }

	pool := job.PoolOptions{
		Parallelism: s.parallelism,
		// Grid workers share the server-wide simulation semaphore, so K
		// concurrent grid requests still run at most `parallelism` cells
		// in total instead of K pools of that size each.
		Runner: semRunner{sem: s.sem, next: s.runner},
		Progress: func(p job.Progress) {
			emit(gridEvent{
				Type: "progress",
				Progress: &gridProgress{
					Scheme:      p.Job.Scheme,
					Benchmark:   p.Job.Benchmark,
					Completed:   p.Completed,
					Total:       p.Total,
					ElapsedMS:   float64(p.Elapsed.Microseconds()) / 1e3,
					RemainingMS: float64(p.Remaining.Microseconds()) / 1e3,
				},
			})
		},
	}
	res, err := experiments.Run(r.Context(), spec, pool, false)
	if err != nil {
		emit(gridEvent{Type: "error", Error: err.Error()})
		return
	}
	emit(gridEvent{Type: "result", Grid: res.Export()})
}

// semRunner gates a runner behind the server's simulation semaphore.
type semRunner struct {
	sem  chan struct{}
	next job.Runner
}

// Run implements job.Runner.
func (s semRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	return s.next.Run(ctx, j)
}

// validKey matches job content digests (hex SHA-256). Anything else is an
// unknown result by definition — mapped to 404 up front so a malformed
// key never reaches a backend that might report it as a store failure.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleResult serves a stored result by content digest.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for key %s (keys are hex sha-256 digests)", key))
		return
	}
	run, ok, err := s.st.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no result for key %s", key))
		return
	}
	writeJSON(w, http.StatusOK, jobResponse{
		Key:          key,
		Cached:       true,
		Result:       run,
		ResultDigest: job.ResultDigest(run),
	})
}
