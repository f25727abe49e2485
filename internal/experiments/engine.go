package experiments

import (
	"context"

	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/workload"
)

// gridSpec translates the grid request into the job layer's serializable
// form, with BaseScheme prepended (every figure normalizes to it).
func gridSpec(schemes []string, opts Options) job.GridSpec {
	params := opts.Params
	return job.GridSpec{
		Schemes:    append([]string{BaseScheme}, schemes...),
		Benchmarks: opts.Benchmarks,
		Clusters:   opts.Clusters,
		Warmup:     opts.Warmup,
		Measure:    opts.Measure,
		Params:     &params,
	}
}

// RunContext plans the grid as canonical jobs (job.GridSpec.Plan: base
// first, then the requested schemes in input order with duplicates
// dropped, each crossed with the benchmarks) and simulates them on the job
// layer's bounded worker pool (job.RunAll); the first cell error cancels
// the remaining work and is returned. The assembled Result is identical to
// a serial run's — cells are independent, and the output map is built from
// a positionally indexed slice, so worker scheduling cannot leak into the
// numbers or their grouping. Injecting Options.Runner (e.g. a
// store.Cached) reuses results across grids without touching the numbers:
// cache hits are bit-identical to fresh simulations.
func RunContext(ctx context.Context, schemes []string, opts Options) (*Result, error) {
	jobs, err := gridSpec(schemes, opts).Plan()
	if err != nil {
		return nil, err
	}
	// Echo the lazily-planned benchmark set into the result's options so
	// reports iterate the benchmarks that actually ran.
	if len(opts.Benchmarks) == 0 {
		opts.Benchmarks = workload.Names()
	}

	// With Opts.Attrib set, every cell that simulates does so with a
	// cycle-attribution probe attached; the wrapper keeps the reports by
	// job key and rides on the Result for retrieval. Probes are passive,
	// so the measurements are unchanged.
	runner := opts.Runner
	var attrib *job.Attributed
	if opts.Attrib {
		attrib = &job.Attributed{Next: opts.Runner}
		runner = attrib
	}

	runs, err := job.RunAll(ctx, jobs, job.PoolOptions{
		Parallelism: opts.Parallelism,
		Runner:      runner,
		Progress:    opts.Progress,
	})
	if err != nil {
		return nil, err
	}

	// Assemble the map in job order — deterministic regardless of which
	// worker finished when.
	res := &Result{Runs: make(map[string]map[string]*stats.Run), Opts: opts, jobs: jobs, attrib: attrib}
	for i, j := range jobs {
		m, ok := res.Runs[j.Scheme]
		if !ok {
			m = make(map[string]*stats.Run, len(opts.Benchmarks))
			res.Runs[j.Scheme] = m
		}
		m[j.Benchmark] = runs[i]
	}
	return res, nil
}
