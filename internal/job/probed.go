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
// digest are bit-identical to an unprobed run's.
func RunWithAttribution(ctx context.Context, j Job) (*stats.Run, *probe.Report, error) {
	var a *probe.Attribution
	ctx = WithProbe(ctx, func() core.Probe {
		a = probe.NewAttribution()
		return a
	})
	r, err := Direct{}.Run(ctx, j)
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

// Disagreement runs every scheme of the spec (on the spec's single
// benchmark) with a steering-forensics probe attached and builds the
// scheme×scheme disagreement matrix. The oracle stream does not depend on
// the scheme, and each program instruction is steered once, in order, so
// steering decision k is the same program instruction in every run and the
// matrix compares placements decision by decision.
func Disagreement(ctx context.Context, g GridSpec) (*probe.Disagreement, error) {
	benches := g.EffectiveBenchmarks()
	if len(benches) != 1 {
		return nil, fmt.Errorf("job: disagreement wants exactly one benchmark, got %d", len(benches))
	}
	if len(g.Schemes) == 0 {
		return nil, fmt.Errorf("job: disagreement wants at least one scheme")
	}
	choices := make([][]uint8, 0, len(g.Schemes))
	for _, scheme := range g.Schemes {
		j, err := Spec{
			Scheme:    scheme,
			Benchmark: benches[0],
			Clusters:  g.Clusters,
			Warmup:    g.Warmup,
			Measure:   g.Measure,
			Params:    g.Params,
		}.Plan()
		if err != nil {
			return nil, err
		}
		var f *probe.Forensics
		pctx := WithProbe(ctx, func() core.Probe {
			f = &probe.Forensics{}
			return f
		})
		if _, err := (Direct{}).Run(pctx, j); err != nil {
			return nil, err
		}
		choices = append(choices, f.Choices())
	}
	return probe.ComputeDisagreement(g.Schemes, choices)
}
