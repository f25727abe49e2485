package job

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/job/flight"
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
// requests for the same warm key coalesce onto one warm simulation, and
// the newest defaultWarmLimit snapshots are kept.
type Checkpointed struct {
	limit int // retained snapshots; 0 means defaultWarmLimit (tests lower it)
	warm  flight.Group[*core.Checkpoint]
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
	// The leader warms a machine exactly as Direct does and measures it
	// directly; the snapshot is for the followers. A nil snapshot means
	// the job's policy cannot be snapshotted. The snapshot (or the warm
	// error) is deterministic, so sharing it preserves bit-identity.
	var m *core.Machine
	cp, err := c.warm.Do(ctx, warmKey(j), cmp.Or(c.limit, defaultWarmLimit), func() (*core.Checkpoint, error) {
		p, err := workload.Load(j.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("job: %w", err)
		}
		w, err := newMachine(ctx, j, p)
		if err != nil {
			return nil, err
		}
		if err := w.Warm(j.Warmup); err != nil {
			return nil, runErr(j, err)
		}
		m = w
		cp, _ := w.Checkpoint()
		return cp, nil
	})
	if err != nil {
		return nil, err
	}
	if m == nil { // a follower: continue from the leader's snapshot
		if cp == nil {
			return Direct{}.Run(ctx, j)
		}
		if m = cp.Restore(); m == nil {
			return nil, fmt.Errorf("job: %s/%s: checkpoint no longer restorable", j.Scheme, j.Benchmark)
		}
		if src := envFrom(ctx).oracle; src != nil {
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
	}
	return measure(m, j)
}
