package job

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// defaultWarmLimit bounds the retained warm snapshots. A snapshot holds a
// full machine (paged memory image, cache tags, predictor tables); the
// default comfortably covers a scheme × benchmark × cluster grid while
// keeping the working set in the tens of megabytes.
const defaultWarmLimit = 128

// Checkpointed is a Runner that simulates each job's warm phase at most
// once per warm key and replays measurement runs from the frozen snapshot
// (core's warm-state checkpointing). The warm key is the job with the
// measurement budget zeroed: warm state depends on everything else —
// including the steering scheme, whose tables train during warm-up — so
// only runs differing in Measure alone share a snapshot. Results are
// bit-identical to Direct (the checkpoint round-trip and golden-grid tests
// lock this); the savings materialize when the same grid runs repeatedly
// (benchmark iterations, measurement-window sweeps).
//
// The zero value is ready to use and safe for concurrent use; concurrent
// requests for the same warm key coalesce onto one warm simulation.
type Checkpointed struct {
	// Limit caps retained snapshots (oldest evicted first); 0 means
	// defaultWarmLimit. Set before the first Run.
	Limit int

	mu      sync.Mutex
	entries map[string]*warmEntry
	order   []string
}

// warmEntry is one warm key's slot: ready closes when the warm phase
// finished. cp is nil with a nil err when the job's policy cannot be
// snapshotted — followers fall back to a full Direct run.
type warmEntry struct {
	ready chan struct{}
	cp    *core.Checkpoint
	err   error
}

// warmKey identifies a job's warm phase: every field except the
// measurement budget.
func warmKey(j Job) string {
	j.Measure = 0
	return j.Key()
}

// Run executes the job, reusing the warm snapshot when one exists.
func (c *Checkpointed) Run(ctx context.Context, j Job) (*stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := warmKey(j)
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*warmEntry)
	}
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		switch {
		case e.err != nil:
			return nil, e.err
		case e.cp == nil:
			return Direct{}.Run(ctx, j)
		}
		m := e.cp.Restore()
		if m == nil {
			return nil, fmt.Errorf("job: %s/%s: checkpoint no longer restorable", j.Scheme, j.Benchmark)
		}
		if src := oracleSourceFrom(ctx); src != nil {
			// The snapshot's oracle is the leader's: over a recorded trace
			// it reaches only the leader's window plus the fetch-ahead
			// bound, and this follower may measure further. Continue the
			// same stream from the follower's own source, whose recording
			// covers its window. A live-emulator snapshot cannot be taken
			// over, and needs no help: its stream never ends.
			o, err := src()
			if err != nil {
				return nil, err
			}
			m.ResumeOracle(o)
		}
		r, err := m.Measure(j.Measure)
		if err != nil {
			return nil, fmt.Errorf("job: %s/%s: %w", j.Scheme, j.Benchmark, err)
		}
		r.Scheme = j.Scheme
		return r, nil
	}
	e := &warmEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	limit := c.Limit
	if limit <= 0 {
		limit = defaultWarmLimit
	}
	if len(c.order) > limit {
		// Evict the oldest key. Followers already waiting on its entry
		// hold the pointer and complete normally; later requests re-warm.
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.mu.Unlock()

	m, err := c.warm(ctx, j, e)
	close(e.ready)
	if err != nil {
		return nil, err
	}
	// The leader measures its own machine directly — the snapshot is for
	// the followers.
	r, err := m.Measure(j.Measure)
	if err != nil {
		return nil, fmt.Errorf("job: %s/%s: %w", j.Scheme, j.Benchmark, err)
	}
	r.Scheme = j.Scheme
	return r, nil
}

// warm builds the job's machine exactly as Direct does, runs the warm
// phase, and fills the entry with the snapshot (or the error; both are
// deterministic, so sharing them with followers preserves bit-identity).
func (c *Checkpointed) warm(ctx context.Context, j Job, e *warmEntry) (*core.Machine, error) {
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		e.err = fmt.Errorf("job: %w", err)
		return nil, e.err
	}
	m, err := newMachine(ctx, j, p)
	if err != nil {
		e.err = err
		return nil, err
	}
	if err := m.Warm(j.Warmup); err != nil {
		e.err = fmt.Errorf("job: %s/%s: %w", j.Scheme, j.Benchmark, err)
		return nil, e.err
	}
	if cp, ok := m.Checkpoint(); ok {
		e.cp = cp
	}
	return m, nil
}
