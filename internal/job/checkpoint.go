package job

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/job/flight"
	"repro/internal/stats"
	"repro/internal/workload"
)

// defaultWarmLimit bounds the retained warm keys, each of which holds one
// snapshot: its measurement frontier, a full machine (paged memory image,
// cache tags, predictor tables) standing where the key's furthest
// measurement stopped. The default comfortably covers a scheme ×
// benchmark × cluster grid while keeping the working set in the tens of
// megabytes.
const defaultWarmLimit = 128

// Checkpointed is a Runner that simulates each job's warm phase at most
// once per warm key, and each measured instruction of a key at most once
// per window sweep run shortest window first. The warm key is the job with
// the measurement budget zeroed: warm state depends on everything else —
// including the steering scheme, whose tables train during warm-up — so
// only runs differing in Measure alone share state.
//
// Each warm key keeps one snapshot, its measurement frontier: the machine
// of the run that measured the longest window so far (core's warm-state
// checkpointing; core.Machine.Measure continues a measurement under way).
// A job whose window is at least the frontier's restores the frontier and
// continues it, so a repeated window costs one restore and a longer one
// simulates only the instructions past the frontier; a run that went
// further becomes the new frontier. A job with a shorter window cannot be
// served from a later point and warms afresh, as Direct does: a sweep run
// longest window first warms once per window. Results are bit-identical to
// Direct either way (the checkpoint round-trip, continuation and
// golden-grid tests lock this).
//
// The zero value is ready to use and safe for concurrent use; concurrent
// first runs of a warm key coalesce onto one warm simulation, and the
// newest defaultWarmLimit keys are kept.
type Checkpointed struct {
	limit int // retained warm keys; 0 means defaultWarmLimit (tests lower it)
	warm  flight.Group[*frontier]
}

// frontier is one warm key's retained snapshot and the measurement window
// it has reached. cp is nil when the key's machine cannot be snapshotted.
// A published snapshot is never run again (restores clone it), so only
// the fields need the lock.
type frontier struct {
	mu     sync.Mutex
	cp     *core.Checkpoint
	window uint64 // 0 = until HALT
}

// errLeaderMeasure is what coalesced waiters receive when the leader's
// measurement failed: the warm phase they waited for is lost with it, and
// their own windows may not fail, so each runs on its own.
var errLeaderMeasure = errors.New("job: warm leader's measurement failed")

// warmKey identifies a job's warm phase: every field except the
// measurement budget.
func warmKey(j Job) string {
	j.Measure = 0
	return j.Key()
}

// Run executes the job, continuing the warm key's frontier when the job's
// window reaches it.
func (c *Checkpointed) Run(ctx context.Context, j Job) (*stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The leader warms a machine exactly as Direct does, measures it, and
	// publishes the measured machine itself as the key's first frontier.
	// The frontier (or the warm error) is deterministic, so sharing it
	// preserves bit-identity.
	var (
		led     bool
		r       *stats.Run
		leadErr error
	)
	f, err := c.warm.Do(ctx, warmKey(j), cmp.Or(c.limit, defaultWarmLimit), func() (*frontier, error) {
		led = true
		p, err := workload.Load(j.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("job: %w", err)
		}
		m, err := warmMachine(ctx, j, p)
		if err != nil {
			return nil, err
		}
		if r, leadErr = measure(m, j); leadErr != nil {
			return nil, errLeaderMeasure
		}
		cp, _ := m.Freeze()
		return &frontier{cp: cp, window: j.Measure}, nil
	})
	switch {
	case led && leadErr != nil:
		return nil, leadErr
	case led && err == nil:
		return r, nil
	case errors.Is(err, errLeaderMeasure):
		return Direct{}.Run(ctx, j)
	case err != nil:
		return nil, err
	}

	f.mu.Lock()
	cp, window := f.cp, f.window
	f.mu.Unlock()
	if cp == nil || !core.WindowCovers(j.Measure, window) {
		// The policy cannot be snapshotted, or the frontier has passed
		// this job's window.
		return Direct{}.Run(ctx, j)
	}
	m := cp.Restore()
	if m == nil {
		return nil, fmt.Errorf("job: %s/%s: checkpoint no longer restorable", j.Scheme, j.Benchmark)
	}
	if src := envFrom(ctx).oracle; src != nil {
		// The frontier's oracle is the run's that reached it: over a
		// recorded trace it reaches only that run's window plus the
		// fetch-ahead bound, and this job may measure further. Continue
		// the same stream from the job's own source, whose recording
		// covers its window. A live-emulator snapshot cannot be taken
		// over, and needs no help: its stream never ends.
		o, err := src()
		if err != nil {
			return nil, err
		}
		m.ResumeOracle(o)
	}
	if r, err = measure(m, j); err != nil {
		return nil, err
	}
	f.advance(m, j.Measure)
	return r, nil
}

// advance makes m, measured over window, the frontier if it went further
// than the current one; otherwise m is dropped. The frontier never moves
// back.
func (f *frontier) advance(m *core.Machine, window uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if window == f.window || !core.WindowCovers(window, f.window) {
		return
	}
	if cp, ok := m.Freeze(); ok {
		f.cp, f.window = cp, window
	}
}
