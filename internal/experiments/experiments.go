// Package experiments runs the paper's evaluation grid — steering scheme ×
// SpecInt95-analog benchmark — and formats each table and figure of Canal,
// Parcerisa and González (HPCA 2000) from the measurements. cmd/dcabench
// and the repository's benchmark targets are thin wrappers around it.
package experiments

import (
	"repro/internal/job"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Result holds the measurement grid.
type Result struct {
	// Runs maps scheme -> benchmark -> measurements.
	Runs map[string]map[string]*stats.Run
	// Spec is the grid as Run planned it: job.BaseScheme first, then the
	// requested schemes, with Benchmarks set to the list that ran.
	Spec job.GridSpec

	// jobs are the cells' canonical jobs as Run planned them (base first,
	// then the requested schemes in input order), so the export and the
	// attribution lookup name exactly the jobs that ran.
	jobs []job.Job
	// attrib holds the per-cell stall breakdowns when the grid ran with
	// attribution (the job.Attributed wrapper the grid ran through).
	attrib *job.Attributed
}

// Get returns the run for (scheme, benchmark), or nil when absent.
func (r *Result) Get(scheme, bench string) *stats.Run {
	if m, ok := r.Runs[scheme]; ok {
		return m[bench]
	}
	return nil
}

// Attribution returns the stall breakdown recorded for (scheme, bench):
// nil when the grid ran without attribution, or when the cell never
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
	run, base := r.Get(scheme, bench), r.Get(job.BaseScheme, bench)
	if run == nil || base == nil {
		return 0
	}
	return stats.Speedup(run, base)
}

// MeanSpeedup returns the geometric-mean speed-up of a scheme across the
// grid's benchmarks (the figures' "G-mean"/"H-mean" summary bar).
func (r *Result) MeanSpeedup(scheme string) float64 {
	if len(r.Spec.Benchmarks) == 0 {
		return 0
	}
	var runs, bases []*stats.Run
	for _, bench := range r.Spec.Benchmarks {
		run, base := r.Get(scheme, bench), r.Get(job.BaseScheme, bench)
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
	if len(r.Spec.Benchmarks) == 0 {
		return 0, 0
	}
	n := 0
	for _, bench := range r.Spec.Benchmarks {
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
	for _, bench := range r.Spec.Benchmarks {
		if run := r.Get(scheme, bench); run != nil {
			h.Merge(&run.Balance)
		}
	}
	return h
}
