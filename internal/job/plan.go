package job

import (
	"repro/internal/config"
	"repro/internal/steer"
	"repro/internal/workload"
)

// ConfigFor maps a scheme name and cluster count to the machine it runs
// on: the base and upper-bound pseudo-schemes use their dedicated
// machines whatever the count (ValidateSchemeClusters refuses any but 0
// or 2 for them), the FIFO scheme uses the FIFO-queue organization, and
// everything else runs on the steered machine — the paper's asymmetric
// two-cluster processor when clusters is 0 or 2, config.ClusteredN
// otherwise.
func ConfigFor(scheme string, clusters int) *config.Config {
	switch scheme {
	case BaseScheme:
		return config.Base()
	case UBScheme:
		return config.UpperBound()
	}
	if clusters == 0 || clusters == 2 {
		if scheme == "fifo" {
			return config.FIFOClustered()
		}
		return config.Clustered()
	}
	if scheme == "fifo" {
		return config.ClusteredNFIFO(clusters)
	}
	return config.ClusteredN(clusters)
}

// Spec describes one cell in user terms — the flags a CLI or an HTTP
// request carries. Plan expands it into the canonical Job: the machine
// preset is resolved from (scheme, clusters), Params.Clusters is
// synchronized to the machine, and pseudo-scheme jobs get zeroed Params
// (steering parameters cannot affect the base or upper-bound machines, so
// canonicalizing them away keeps their digests stable across callers).
type Spec struct {
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`
	// Clusters selects the steered machine: 0 or 2 is the paper's
	// asymmetric two-cluster processor, anything else config.ClusteredN.
	// The base and ub pseudo-schemes take only 0 or 2
	// (ValidateSchemeClusters).
	Clusters int `json:"clusters,omitempty"`
	// Warmup and Measure are the committed-instruction budgets.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Params are the balance-machinery constants; nil means
	// steer.DefaultParams().
	Params *steer.Params `json:"params,omitempty"`
}

// Plan validates the spec and builds its canonical Job.
func (s Spec) Plan() (Job, error) {
	if err := ValidateMeasure(s.Measure); err != nil {
		return Job{}, err
	}
	if err := ValidateClusters(s.Clusters); err != nil {
		return Job{}, err
	}
	if err := ValidateScheme(s.Scheme); err != nil {
		return Job{}, err
	}
	if err := ValidateSchemeClusters(s.Scheme, s.Clusters); err != nil {
		return Job{}, err
	}
	if err := ValidateBenchmark(s.Benchmark); err != nil {
		return Job{}, err
	}
	if err := ValidateParams(s.Params); err != nil {
		return Job{}, err
	}
	cfg := ConfigFor(s.Scheme, s.Clusters)
	var params steer.Params
	if s.Scheme != BaseScheme && s.Scheme != UBScheme {
		if s.Params != nil {
			params = *s.Params
		} else {
			params = steer.DefaultParams()
		}
		params.Clusters = cfg.NumClusters()
	}
	return Job{
		Config:    cfg,
		Scheme:    s.Scheme,
		Params:    params,
		Benchmark: s.Benchmark,
		Warmup:    s.Warmup,
		Measure:   s.Measure,
	}, nil
}

// GridSpec describes a whole evaluation grid: schemes × benchmarks at one
// machine size and window. It is the one grid request: internal/experiments
// runs it, and dcaserve's /v1/grids and queued grids decode it.
type GridSpec struct {
	// Schemes lists the steering schemes (plus pseudo-schemes) to run, in
	// the order the grid should iterate them; duplicates are dropped.
	Schemes []string `json:"schemes"`
	// Benchmarks selects the workloads, in the order the grid should
	// iterate them; duplicates are dropped. Nil or empty plans the full
	// SpecInt95 analog set lazily — workload.Names() is consulted at plan
	// time, not stored.
	Benchmarks []string      `json:"benchmarks,omitempty"`
	Clusters   int           `json:"clusters,omitempty"`
	Warmup     uint64        `json:"warmup"`
	Measure    uint64        `json:"measure"`
	Params     *steer.Params `json:"params,omitempty"`
}

// EffectiveBenchmarks returns the benchmark list the grid will run: the
// explicit selection with repeats dropped (first occurrence kept), or the
// full default set when none was given.
func (g GridSpec) EffectiveBenchmarks() []string {
	if len(g.Benchmarks) == 0 {
		return workload.Names()
	}
	return dedup(g.Benchmarks)
}

// dedup returns names without repeats, keeping each name's first
// occurrence in place.
func dedup(names []string) []string {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// Plan validates the grid and expands it into the canonical job list in
// deterministic order: schemes in input order with duplicates dropped,
// each crossed with EffectiveBenchmarks in order. The base and ub
// pseudo-schemes are planned on their fixed machines (clusters 0), so a
// grid on N clusters keeps the two-cluster base as its speed-up
// denominator.
func (g GridSpec) Plan() ([]Job, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	schemes, benches := dedup(g.Schemes), g.EffectiveBenchmarks()
	jobs := make([]Job, 0, len(schemes)*len(benches))
	for _, scheme := range schemes {
		clusters := g.Clusters
		if scheme == BaseScheme || scheme == UBScheme {
			clusters = 0
		}
		for _, bench := range benches {
			j, err := Spec{
				Scheme:    scheme,
				Benchmark: bench,
				Clusters:  clusters,
				Warmup:    g.Warmup,
				Measure:   g.Measure,
				Params:    g.Params,
			}.Plan()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}
