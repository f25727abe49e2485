// Package experiments runs the paper's evaluation grid — steering scheme ×
// SpecInt95-analog benchmark — and formats each table and figure of Canal,
// Parcerisa and González (HPCA 2000) from the measurements. cmd/dcabench
// and the repository's benchmark targets are thin wrappers around it.
package experiments

import (
	"context"

	"repro/internal/job"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/steer"
)

// BaseScheme and UBScheme are the pseudo-scheme names for the two
// reference machines: the conventional base (speed-up denominator) and the
// 16-way upper bound of Figure 14. They are re-exported from the job
// layer, which owns scheme resolution.
const (
	BaseScheme = job.BaseScheme
	UBScheme   = job.UBScheme
)

// Options controls a grid run.
type Options struct {
	// Warmup and Measure are per-run committed-instruction budgets. The
	// paper used 100M after skipping 100M; defaults are scaled down to
	// laptop time (shape, not absolute numbers, is the target).
	Warmup  uint64
	Measure uint64
	// Benchmarks selects the workloads. Nil or empty means all eight,
	// planned lazily by the job layer (workload.Names() is consulted when
	// the grid is planned, not when Options is built).
	Benchmarks []string
	// Clusters is the cluster count of the steered machine: 0 or 2 run
	// the paper's asymmetric two-cluster processor; any other value runs
	// config.ClusteredN (symmetric clusters, crossbar fabric). The base
	// and upper-bound pseudo-schemes always use their dedicated machines
	// so speed-ups stay normalized to the paper's baseline.
	Clusters int
	// Params are the balance-machinery constants; Params.Clusters is
	// overridden per cell to match the machine actually simulated.
	Params steer.Params
	// Parallelism bounds the number of grid cells simulated concurrently;
	// 0 or negative means runtime.GOMAXPROCS(0). Results are identical at
	// every setting — each cell owns its machine.
	Parallelism int
	// Progress, when non-nil, is invoked once per completed cell with the
	// cell's job, running totals and an ETA (see job.Progress). The engine
	// serializes the calls, but they arrive from worker goroutines — keep
	// the callback fast.
	Progress func(job.Progress)
	// Runner executes each cell; nil means job.Direct{} (simulate
	// in-process). Inject a store.Cached to reuse results across grids, or
	// a job.Checkpointed to simulate each cell's warm phase once and replay
	// measurement runs from the warm-state snapshot (worthwhile when the
	// same grid runs repeatedly — benchmark iterations, window sweeps).
	// Either way results are bit-identical to fresh direct simulations
	// (golden-locked).
	Runner job.Runner
	// Attrib attaches a cycle-attribution probe to every cell that
	// actually simulates; the per-cell stall breakdowns are retrievable via
	// Result.Attribution and ride along in Export. Attribution is
	// observability, never behaviour: the measurements and their digests
	// are bit-identical with it on or off (TestGoldenProbeInvariants).
	Attrib bool
}

// DefaultOptions returns the standard grid configuration. The default
// window is 100k warm-up + 1M measured instructions per cell — raised 4x
// after the allocation-free hot-loop rewrite made cycles cheap (see the
// window-length sensitivity section of EXPERIMENTS.md). Benchmarks is
// left nil — the full set is planned lazily by the job layer — so building
// Options allocates nothing per call.
func DefaultOptions() Options {
	return Options{
		Warmup:  100_000,
		Measure: 1_000_000,
		Params:  steer.DefaultParams(),
	}
}

// Result holds the measurement grid.
type Result struct {
	// Runs maps scheme -> benchmark -> measurements.
	Runs map[string]map[string]*stats.Run
	// Opts echoes the options the grid ran with.
	Opts Options

	// jobs are the cells' canonical jobs as RunContext planned them (base
	// first, then the requested schemes in input order), so the export
	// and the attribution lookup name exactly the jobs that ran.
	jobs []job.Job
	// attrib holds the per-cell stall breakdowns when Opts.Attrib was set
	// (the job.Attributed wrapper the grid ran through).
	attrib *job.Attributed
}

// RunOne simulates a single (scheme, benchmark) cell: it plans the cell's
// canonical job and executes it through Options.Runner (job.Direct when
// unset).
func RunOne(scheme, bench string, opts Options) (*stats.Run, error) {
	params := opts.Params
	j, err := job.Spec{
		Scheme:    scheme,
		Benchmark: bench,
		Clusters:  opts.Clusters,
		Warmup:    opts.Warmup,
		Measure:   opts.Measure,
		Params:    &params,
	}.Plan()
	if err != nil {
		return nil, err
	}
	runner := opts.Runner
	if runner == nil {
		runner = job.Direct{}
	}
	return runner.Run(context.Background(), j)
}

// Run simulates the grid for the given schemes (BaseScheme is always added
// — every figure normalizes to it). Cells run concurrently on a worker
// pool; see RunContext for cancellation and Options.Parallelism for the
// pool size.
func Run(schemes []string, opts Options) (*Result, error) {
	return RunContext(context.Background(), schemes, opts)
}

// Get returns the run for (scheme, benchmark), or nil when absent.
func (r *Result) Get(scheme, bench string) *stats.Run {
	if m, ok := r.Runs[scheme]; ok {
		return m[bench]
	}
	return nil
}

// Attribution returns the stall breakdown recorded for (scheme, bench):
// nil when the grid ran without Opts.Attrib, or when the cell never
// simulated in this process (e.g. it was served from an injected cache,
// whose machines the attribution wrapper never saw).
func (r *Result) Attribution(scheme, bench string) *probe.Report {
	if r.attrib == nil {
		return nil
	}
	for _, j := range r.jobs {
		if j.Scheme == scheme && j.Benchmark == bench {
			return r.attrib.Report(j.Key())
		}
	}
	return nil
}

// Speedup returns the percent IPC improvement of scheme over the base
// machine on bench.
func (r *Result) Speedup(scheme, bench string) float64 {
	run, base := r.Get(scheme, bench), r.Get(BaseScheme, bench)
	if run == nil || base == nil {
		return 0
	}
	return stats.Speedup(run, base)
}

// MeanSpeedup returns the geometric-mean speed-up of a scheme across the
// grid's benchmarks (the figures' "G-mean"/"H-mean" summary bar).
func (r *Result) MeanSpeedup(scheme string) float64 {
	if len(r.Opts.Benchmarks) == 0 {
		return 0
	}
	var runs, bases []*stats.Run
	for _, bench := range r.Opts.Benchmarks {
		run, base := r.Get(scheme, bench), r.Get(BaseScheme, bench)
		if run == nil || base == nil {
			continue
		}
		runs = append(runs, run)
		bases = append(bases, base)
	}
	return stats.GeoMeanSpeedup(runs, bases)
}

// MeanComm returns the average communications per instruction of a scheme
// across benchmarks, split into (total, critical).
func (r *Result) MeanComm(scheme string) (total, critical float64) {
	if len(r.Opts.Benchmarks) == 0 {
		return 0, 0
	}
	n := 0
	for _, bench := range r.Opts.Benchmarks {
		if run := r.Get(scheme, bench); run != nil {
			total += run.CommPerInstr()
			critical += run.CriticalCommPerInstr()
			n++
		}
	}
	if n > 0 {
		total /= float64(n)
		critical /= float64(n)
	}
	return total, critical
}

// MergedBalance returns the scheme's ready-difference distribution summed
// over all benchmarks (the paper's "SpecInt95 average" histograms).
func (r *Result) MergedBalance(scheme string) stats.BalanceHist {
	var h stats.BalanceHist
	for _, bench := range r.Opts.Benchmarks {
		if run := r.Get(scheme, bench); run != nil {
			h.Merge(&run.Balance)
		}
	}
	return h
}
