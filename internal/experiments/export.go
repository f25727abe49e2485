package experiments

import (
	"slices"
	"strings"

	"repro/internal/job"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Export is the serializable form of a Result: every cell's canonical job,
// its content digest, and its measurements, in deterministic order
// (BaseScheme first, remaining schemes sorted, benchmarks in grid order).
// cmd/dcabench -json emits it so grids can be diffed and archived, and
// cmd/dcaserve's grid endpoint streams it back to callers.
type Export struct {
	Clusters   int          `json:"clusters"`
	Warmup     uint64       `json:"warmup"`
	Measure    uint64       `json:"measure"`
	Benchmarks []string     `json:"benchmarks"`
	Cells      []ExportCell `json:"cells"`
}

// ExportCell is one grid cell: the job, its digest, and its result.
type ExportCell struct {
	Job job.Job `json:"job"`
	// Key is the job's content digest (job.Job.Key) — the handle
	// cmd/dcaserve serves the result under.
	Key    string     `json:"key"`
	Result *stats.Run `json:"result"`
	// ResultDigest is the SHA-256 of the result's JSON encoding; equal
	// digests mean bit-identical measurements.
	ResultDigest string `json:"result_digest"`
	// Attribution is the cell's stall breakdown when the grid ran with
	// Options.Attrib. It rides alongside the result, never inside it: the
	// digest above covers the measurements only, so attributed and plain
	// exports of the same grid carry identical digests.
	Attribution *probe.Report `json:"attribution,omitempty"`
}

// Export pairs the jobs the grid ran with their measurements, in report
// order (see reportJobs).
func (r *Result) Export() *Export {
	out := &Export{
		Clusters:   r.Opts.Clusters,
		Warmup:     r.Opts.Warmup,
		Measure:    r.Opts.Measure,
		Benchmarks: r.Opts.Benchmarks,
	}
	for _, j := range r.reportJobs() {
		run := r.Get(j.Scheme, j.Benchmark)
		if run == nil {
			continue
		}
		cell := ExportCell{
			Job:          j,
			Key:          j.Key(),
			Result:       run,
			ResultDigest: job.ResultDigest(run),
		}
		if r.attrib != nil {
			cell.Attribution = r.attrib.Report(cell.Key)
		}
		out.Cells = append(out.Cells, cell)
	}
	return out
}

// reportJobs returns the grid's jobs in report order: BaseScheme's first,
// then the other schemes' sorted by name, each scheme's benchmarks in grid
// order.
func (r *Result) reportJobs() []job.Job {
	rank := func(scheme string) string {
		if scheme == BaseScheme {
			return "" // scheme names are never empty, so base sorts first
		}
		return scheme
	}
	jobs := slices.Clone(r.jobs)
	slices.SortStableFunc(jobs, func(a, b job.Job) int {
		return strings.Compare(rank(a.Scheme), rank(b.Scheme))
	})
	return jobs
}
