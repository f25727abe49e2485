package job

import (
	"context"
	"fmt"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Runner executes Jobs. The canonical implementation is Direct (simulate
// in-process); store.Cached wraps any Runner with a content-addressed
// cache and request coalescing, and the experiments engine dispatches
// whole grids through one via RunAll.
type Runner interface {
	Run(ctx context.Context, j Job) (*stats.Run, error)
}

// Direct simulates the job in-process on a fresh core.Machine. Jobs are
// fully independent — each run owns its machine — so Direct is safe for
// concurrent use. The context is checked before the simulation starts;
// a running cell is not interruptible (cells are short: bound them with
// the Measure window, not the context).
type Direct struct{}

// Run loads the job's workload and executes it with RunProgram.
func (Direct) Run(ctx context.Context, j Job) (*stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	return RunProgram(ctx, j, p)
}
