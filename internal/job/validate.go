package job

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/steer"
	"repro/internal/workload"
)

// This file is the single home of run-layer input validation. cmd/dcasim,
// cmd/dcabench, cmd/dcaserve and internal/experiments all reject unknown
// schemes, benchmarks and cluster counts, and balance parameters no
// scheme can run with, through these functions, so a typo fails in
// microseconds — before any simulation starts — with the same error text
// everywhere.

// MaxWindow bounds steer.Params.Window, the number of cycles the I2
// imbalance metric averages over (paper: 16). Every balance scheme
// allocates clusters × Window counters, so the bound caps a request's
// memory; it is far above the widest window the ablation sweeps (64).
const MaxWindow = 1024

// ValidateClusters rejects cluster counts no machine preset supports: 0
// (the paper's asymmetric two-cluster processor) and 1..config.MaxClusters
// (config.ClusteredN) are valid.
func ValidateClusters(clusters int) error {
	if clusters < 0 || clusters > config.MaxClusters {
		return fmt.Errorf("job: %d clusters unsupported (want 0 for the paper's machine, or 1..%d)",
			clusters, config.MaxClusters)
	}
	return nil
}

// ValidateSchemeClusters rejects a cluster count the scheme cannot be
// sized to: the base and ub pseudo-schemes name fixed machines (the
// conventional two-cluster base and the 16-way upper bound), so they take
// no count but 0 or 2. Spec.Plan and dcasim call it; GridSpec.Plan plans
// them on clusters 0 whatever the grid's count.
func ValidateSchemeClusters(scheme string, clusters int) error {
	if (scheme == BaseScheme || scheme == UBScheme) && clusters != 0 && clusters != 2 {
		return fmt.Errorf("job: scheme %q runs on its fixed machine and takes no cluster count but 0 or 2, not %d",
			scheme, clusters)
	}
	return nil
}

// ValidateMeasure rejects a zero measurement window. Measure 0 means "run
// to HALT" (RunProgram), and the named workloads are endless loops, so a
// planned job with it would simulate without bound. dcasim builds its job
// without this check, for -program files that do halt.
func ValidateMeasure(measure uint64) error {
	if measure == 0 {
		return fmt.Errorf("job: measure must be positive")
	}
	return nil
}

// ValidateScheme rejects scheme names that are neither registered steering
// schemes nor the base/ub pseudo-schemes.
func ValidateScheme(scheme string) error {
	if scheme == BaseScheme || scheme == UBScheme || steer.Known(scheme) {
		return nil
	}
	return fmt.Errorf("job: unknown scheme %q (known: %s; plus the pseudo-schemes %q and %q)",
		scheme, strings.Join(steer.Names(), ", "), BaseScheme, UBScheme)
}

// ValidateBenchmark rejects workload names the registry does not know.
func ValidateBenchmark(bench string) error {
	if _, err := workload.Get(bench); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	return nil
}

// ValidateParams rejects balance parameters the steering schemes cannot
// run with; nil (steer.DefaultParams) is valid. A Window outside
// 1..MaxWindow would make the I2 window empty (an index panic on the
// first cycle), negative (a makeslice panic) or unboundedly large.
func ValidateParams(p *steer.Params) error {
	if p != nil && (p.Window < 1 || p.Window > MaxWindow) {
		return fmt.Errorf("job: params Window %d out of range (want 1..%d)", p.Window, MaxWindow)
	}
	return nil
}

// Validate checks a whole grid request without planning it: the window,
// the cluster count, every scheme, every benchmark and the balance
// parameters. Plan calls it, and so does dcaserve's /v1/grids while its
// status code is still writable.
func (g GridSpec) Validate() error {
	if err := ValidateMeasure(g.Measure); err != nil {
		return err
	}
	if err := ValidateClusters(g.Clusters); err != nil {
		return err
	}
	for _, s := range g.Schemes {
		if err := ValidateScheme(s); err != nil {
			return err
		}
	}
	for _, b := range g.EffectiveBenchmarks() {
		if err := ValidateBenchmark(b); err != nil {
			return err
		}
	}
	return ValidateParams(g.Params)
}
