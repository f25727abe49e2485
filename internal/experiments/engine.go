package experiments

import (
	"context"

	"repro/internal/job"
	"repro/internal/stats"
)

// Run plans the grid as canonical jobs (job.GridSpec.Plan) with
// job.BaseScheme prepended — every figure normalizes to it — so the cells
// are base first, then spec's schemes in input order with duplicates
// dropped, each crossed with the benchmarks. It simulates them on the job
// layer's bounded worker pool (job.RunAll under pool); the first cell
// error cancels the remaining work and is returned. The assembled Result
// is identical to a serial run's — cells are independent, and the output
// map is built from a positionally indexed slice, so worker scheduling
// cannot leak into the numbers or their grouping. Injecting pool.Runner
// (e.g. a store.Cached) reuses results across grids without touching the
// numbers: cache hits are bit-identical to fresh simulations.
//
// With attrib set, every cell that simulates does so with a
// cycle-attribution probe attached; the per-cell stall breakdowns are
// retrievable via Result.Attribution and ride along in Export. Probes are
// passive, so the measurements and their digests are bit-identical with it
// on or off (TestGoldenProbeInvariants).
func Run(ctx context.Context, spec job.GridSpec, pool job.PoolOptions, attrib bool) (*Result, error) {
	spec.Schemes = append([]string{job.BaseScheme}, spec.Schemes...)
	spec.Benchmarks = spec.EffectiveBenchmarks()
	jobs, err := spec.Plan()
	if err != nil {
		return nil, err
	}

	var at *job.Attributed
	if attrib {
		at = &job.Attributed{Next: pool.Runner}
		pool.Runner = at
	}
	runs, err := job.RunAll(ctx, jobs, pool)
	if err != nil {
		return nil, err
	}

	// Assemble the map in job order — deterministic regardless of which
	// worker finished when.
	res := &Result{Runs: make(map[string]map[string]*stats.Run), Spec: spec, jobs: jobs, attrib: at}
	for i, j := range jobs {
		m, ok := res.Runs[j.Scheme]
		if !ok {
			m = make(map[string]*stats.Run, len(spec.Benchmarks))
			res.Runs[j.Scheme] = m
		}
		m[j.Benchmark] = runs[i]
	}
	return res, nil
}
