package job

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BlobStore is the byte-blob cache Traced persists encoded recordings
// through. It is structurally satisfied by the store backends
// (store.Memory, store.Disk, store.Tiered); the interface is declared
// here rather than imported because package store already depends on job
// (store.Cached wraps a Runner), so this dependency must point the other
// way — the same convention as store.BlobStore, which documents the
// implementation contract.
type BlobStore interface {
	GetBlob(key string) ([]byte, bool, error)
	PutBlob(key string, raw []byte) error
}

// defaultTraceLimit bounds the decoded traces retained in memory. A trace
// is a few bytes per instruction of its window — far smaller than a warm
// snapshot — so the default matches Checkpointed's.
const defaultTraceLimit = 128

// planFetchAhead is the largest core.FetchAheadBound of any machine
// ConfigFor plans: ClusteredN at MaxClusters has the widest retire, the
// deepest fetch queue and the largest window. Recordings cover it, so one
// recording per (program, window) serves every planned cell; a hand-built
// machine with a deeper front end re-records before its run.
var planFetchAhead = core.FetchAheadBound(config.ClusteredN(config.MaxClusters))

// Traced is a Runner that amortizes the functional front end across the
// grid: the oracle stream for a (program, window) pair is recorded at
// most once — functionally, without a timing machine — and every cell's
// machine then fetches from a replay cursor over the shared recording
// instead of re-executing the emulator. The stream is architectural
// (scheme- and cluster-independent), so one recording serves every
// scheme, cluster count and steering policy in the grid; results are
// bit-identical to live runs (the golden grids and FuzzTraceReplay lock
// this).
//
// Encoded recordings are cached through Blobs when set (the same tiered
// store the results live in), so later processes skip even the one
// recording. The zero value is ready to use and safe for concurrent use;
// concurrent requests for one trace key coalesce onto a single recording,
// mirroring Checkpointed's warm coalescing.
//
// Traced composes with the other runners: it delegates execution to Next
// (default Direct) with the replay source threaded through the context,
// so Traced{Next: &Checkpointed{}} replays the warm phase once per warm
// key and snapshots it — the replay cursor is cloneable state.
type Traced struct {
	// Next runs the job once the oracle source is prepared; nil means
	// Direct{}. Set before the first Run.
	Next Runner
	// Blobs persists encoded recordings across processes; nil records
	// in-process only. Set before the first Run.
	Blobs BlobStore
	// Limit caps retained decoded traces (oldest evicted first); 0 means
	// defaultTraceLimit. Set before the first Run.
	Limit int

	mu      sync.Mutex
	entries map[string]*traceEntry
	order   []string
	metrics TracedMetrics
}

// traceEntry is one trace key's slot: ready closes when the recording
// (or the blob fetch) finished.
type traceEntry struct {
	ready chan struct{}
	tr    *trace.Trace
	err   error
}

// TracedMetrics counts the runner's traffic since creation.
type TracedMetrics struct {
	// Recordings is the number of functional recordings performed.
	Recordings uint64
	// BlobHits is the number of recordings served from the blob store.
	BlobHits uint64
	// Replays is the number of cells run from a replay cursor.
	Replays uint64
	// Extensions and LiveFallbacks counted re-recordings and live re-runs
	// after a cell's front end outran its trace. Recordings are sized by
	// core.FetchAheadBound, so no replay outruns one and both stay 0; they
	// remain for readers of the counters.
	Extensions    uint64
	LiveFallbacks uint64
}

// Metrics returns a snapshot of the runner's counters.
func (c *Traced) Metrics() TracedMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

func (c *Traced) next() Runner {
	if c.Next != nil {
		return c.Next
	}
	return Direct{}
}

// Run executes the job from the shared recording, recording it first if
// this is the key's leader.
func (c *Traced) Run(ctx context.Context, j Job) (*stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	window := j.Warmup + j.Measure
	if window == 0 {
		// A run-to-halt job has no instruction bound to record against;
		// run it live.
		return c.next().Run(ctx, j)
	}
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	key := trace.Key(p.Digest(), window)

	// The machine consumes and peeks at no more than window +
	// FetchAheadBound steps, so a trace that long cannot run dry: a
	// replay that does anyway returns its error.
	tr, err := c.traceFor(p, window, key, window+core.FetchAheadBound(j.Config))
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.metrics.Replays++
	c.mu.Unlock()

	src := func() (core.Oracle, error) { return trace.NewReplayer(tr, p) }
	return c.next().Run(withOracleSource(ctx, src), j)
}

// traceFor returns the cached trace for key, recording it (or fetching it
// from the blob store) if absent — coalescing concurrent requests onto one
// leader. A cached or blob-stored trace shorter than minSteps is treated
// as absent and replaced by a longer recording, unless it already runs to
// HALT (a halted trace is the whole program; no extension can lengthen
// it).
func (c *Traced) traceFor(p *prog.Program, window uint64, key string, minSteps uint64) (*trace.Trace, error) {
	for {
		c.mu.Lock()
		if c.entries == nil {
			c.entries = make(map[string]*traceEntry)
		}
		e, ok := c.entries[key]
		if ok {
			c.mu.Unlock()
			<-e.ready
			if e.err != nil {
				return nil, e.err
			}
			if e.tr.Halted || e.tr.Steps >= minSteps {
				return e.tr, nil
			}
			// Too short for this caller: retire the entry (one winner) and
			// loop; the next pass installs a longer recording.
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			continue
		}
		e = &traceEntry{ready: make(chan struct{})}
		c.entries[key] = e
		c.rememberLocked(key)
		c.mu.Unlock()

		e.tr, e.err = c.record(p, window, key, minSteps)
		close(e.ready)
		if e.err != nil {
			return nil, e.err
		}
		return e.tr, nil
	}
}

// rememberLocked appends key to the eviction order (once) and evicts the
// oldest entry past the limit. Caller holds c.mu.
func (c *Traced) rememberLocked(key string) {
	for _, k := range c.order {
		if k == key {
			return
		}
	}
	c.order = append(c.order, key)
	limit := c.Limit
	if limit <= 0 {
		limit = defaultTraceLimit
	}
	if len(c.order) > limit {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// record produces the trace for (p, window): from the blob store when a
// previous process already recorded a sufficient one, by running the
// functional emulator otherwise. Recording needs no timing machine — the
// stream depends only on the program — so the leader's cost is one
// emulator sweep over the window plus planFetchAhead (or minSteps, for a
// machine with a deeper front end). A blob that fails to decode, belongs
// to another program, or is shorter than minSteps is treated as a miss
// and re-recorded, so a damaged or outgrown cache self-heals the way
// store.Cached's result reads do.
func (c *Traced) record(p *prog.Program, window uint64, key string, minSteps uint64) (*trace.Trace, error) {
	if c.Blobs != nil {
		if raw, ok, _ := c.Blobs.GetBlob(key); ok {
			if tr, err := trace.Decode(raw); err == nil && tr.ProgramDigest == p.Digest() &&
				(tr.Halted || tr.Steps >= minSteps) {
				c.mu.Lock()
				c.metrics.BlobHits++
				c.mu.Unlock()
				return tr, nil
			}
		}
	}
	budget := max(window+planFetchAhead, minSteps)
	rec := trace.NewRecorder(p)
	if err := rec.Extend(budget); err != nil {
		return nil, fmt.Errorf("job: recording %s over %d instructions: %w", p.Name, window, err)
	}
	tr := rec.Finalize(window)
	c.mu.Lock()
	c.metrics.Recordings++
	c.mu.Unlock()
	if c.Blobs != nil {
		// Best-effort: a full or read-only store costs persistence, not
		// correctness.
		_ = c.Blobs.PutBlob(key, tr.Encode())
	}
	return tr, nil
}
