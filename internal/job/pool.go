package job

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
)

// Progress reports one completed job to PoolOptions.Progress. Completed
// counts finished jobs (including the reporting one); Remaining estimates
// the wall-clock time left for the rest of the batch from the throughput
// so far.
type Progress struct {
	// Job is the completed job; Index is its position in the batch.
	Job   Job
	Index int
	// Completed and Total count batch jobs; Completed includes this one.
	Completed int
	Total     int
	// Elapsed is this job's own simulation time.
	Elapsed time.Duration
	// Remaining is the ETA for the unfinished jobs, extrapolated from the
	// batch's wall-clock throughput so far. It is zero for the first
	// completed job — a single sample taken while the pool is still
	// filling extrapolates garbage — and zero again when nothing remains.
	Remaining time.Duration
	// Err is non-nil when the job failed (the batch is being cancelled).
	Err error
}

// PoolOptions controls a RunAll batch.
type PoolOptions struct {
	// Parallelism bounds the number of jobs simulated concurrently; 0 or
	// negative means runtime.GOMAXPROCS(0). Results are identical at every
	// setting — each job owns its machine.
	Parallelism int
	// Runner executes each job; nil means Direct{}. Inject a store.Cached
	// to reuse results across batches, or a failing stub in tests.
	Runner Runner
	// Progress, when non-nil, is invoked once per completed job. The pool
	// serializes the calls, but they arrive from worker goroutines — keep
	// the callback fast.
	Progress func(Progress)
}

// Workers returns the effective worker-pool size for a batch of n jobs:
// parallelism, defaulted to runtime.GOMAXPROCS(0) when unset, clamped to
// the batch size.
func Workers(parallelism, n int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	return parallelism
}

// RunAll executes the batch on a bounded worker pool (see Workers); the
// first job error cancels the remaining work and is returned. Each job
// runs through RunRecovered, so a panicking cell fails the batch, not the
// process. Results are positionally indexed — runs[i] is jobs[i]'s — so
// worker scheduling cannot leak into the output.
func RunAll(ctx context.Context, jobs []Job, opts PoolOptions) ([]*stats.Run, error) {
	runner := opts.Runner
	if runner == nil {
		runner = Direct{}
	}
	workers := Workers(opts.Parallelism, len(jobs))

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		runs      = make([]*stats.Run, len(jobs))
		next      = make(chan int)
		wg        sync.WaitGroup
		mu        sync.Mutex // guards firstErr, completed, Progress calls
		firstErr  error
		completed int
		started   = time.Now() //dca:allow(determinism: feeds the progress ETA only, never a result or digest)
	)

	// Feed job indices until the batch is exhausted or cancelled.
	go func() {
		defer close(next)
		for i := range jobs {
			if ctx.Err() != nil {
				return
			}
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	report := func(i int, elapsed time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
		completed++
		if opts.Progress == nil {
			return
		}
		var remaining time.Duration
		// ETA guard: with one completed job the only timing sample was
		// taken while the pool was still filling, so extrapolating from it
		// overestimates by up to the worker count — report no ETA until a
		// second job lands.
		if left := len(jobs) - completed; left > 0 && completed > 1 {
			//dca:allow(determinism: feeds the progress ETA only, never a result or digest)
			remaining = time.Duration(int64(time.Since(started)) / int64(completed) * int64(left))
		}
		opts.Progress(Progress{
			Job:       jobs[i],
			Index:     i,
			Completed: completed,
			Total:     len(jobs),
			Elapsed:   elapsed,
			Remaining: remaining,
			Err:       err,
		})
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain: the batch is being cancelled
				}
				jobStart := time.Now() //dca:allow(determinism: feeds the progress ETA only, never a result or digest)
				r, err := RunRecovered(ctx, runner, jobs[i])
				if err == nil {
					runs[i] = r
				}
				//dca:allow(determinism: feeds the progress ETA only, never a result or digest)
				report(i, time.Since(jobStart), err)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}

// RunRecovered runs j on runner and returns a panic in the runner as j's
// error, so one bad cell fails its own batch or request and the process
// carries on.
func RunRecovered(ctx context.Context, runner Runner, j Job) (r *stats.Run, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job: %s on %s panicked: %v", j.Scheme, j.Benchmark, p)
		}
	}()
	return runner.Run(ctx, j)
}
