package job

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/stats"
)

// RunWithAttribution runs the job with a cycle-attribution probe attached
// and returns the measurement record alongside its stall-taxonomy report.
// The report rides next to the result, never inside it: the run and its
// digest are bit-identical to an unprobed run's. A panic in the run is
// returned as its error (RunRecovered).
func RunWithAttribution(ctx context.Context, j Job) (*stats.Run, *probe.Report, error) {
	var a *probe.Attribution
	ctx = WithProbe(ctx, func() core.Probe {
		a = probe.NewAttribution()
		return a
	})
	r, err := RunRecovered(ctx, Direct{}, j)
	if err != nil {
		return nil, nil, err
	}
	return r, a.Report(), nil
}

// Attributed decorates a Runner with cycle attribution: every job that
// actually simulates (as opposed to hitting a cache below Next) gets an
// attribution probe, and the reports are kept by job key for retrieval
// after the grid completes. Safe for concurrent use, like the runners it
// wraps.
type Attributed struct {
	// Next is the wrapped runner; nil means Direct{}.
	Next Runner

	mu      sync.Mutex
	reports map[string]*probe.Report
}

// Run implements Runner.
func (a *Attributed) Run(ctx context.Context, j Job) (*stats.Run, error) {
	var at *probe.Attribution
	next := a.Next
	if next == nil {
		next = Direct{}
	}
	r, err := next.Run(WithProbe(ctx, func() core.Probe {
		at = probe.NewAttribution()
		return at
	}), j)
	if err != nil {
		return nil, err
	}
	if at != nil && at.Total() > 0 {
		a.mu.Lock()
		if a.reports == nil {
			a.reports = make(map[string]*probe.Report)
		}
		a.reports[j.Key()] = at.Report()
		a.mu.Unlock()
	}
	return r, nil
}

// Report returns the attribution recorded for a job key, nil when the
// job never simulated under this runner (e.g. it was served from a cache
// below Next, whose machines this wrapper never saw).
func (a *Attributed) Report(key string) *probe.Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reports[key]
}

// Disagreement runs every scheme of the spec (planned by GridSpec.Plan, so
// duplicates are dropped) on the spec's single benchmark with a
// steering-forensics probe attached and builds the scheme×scheme
// disagreement matrix. The oracle stream does not depend on the scheme,
// and each program instruction is steered once, in order, so steering
// decision k is the same program instruction in every run and the matrix
// compares placements decision by decision.
func Disagreement(ctx context.Context, g GridSpec) (*probe.Disagreement, error) {
	benches := g.EffectiveBenchmarks()
	if len(benches) != 1 {
		return nil, fmt.Errorf("job: disagreement wants exactly one benchmark, got %d", len(benches))
	}
	if len(g.Schemes) == 0 {
		return nil, fmt.Errorf("job: disagreement wants at least one scheme")
	}
	jobs, err := g.Plan()
	if err != nil {
		return nil, err
	}
	schemes := make([]string, len(jobs))
	choices := make([][]uint8, len(jobs))
	for i, j := range jobs {
		var f *probe.Forensics
		pctx := WithProbe(ctx, func() core.Probe {
			f = &probe.Forensics{}
			return f
		})
		if _, err := (Direct{}).Run(pctx, j); err != nil {
			return nil, err
		}
		schemes[i], choices[i] = j.Scheme, f.Choices()
	}
	return probe.ComputeDisagreement(schemes, choices)
}
