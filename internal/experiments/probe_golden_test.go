package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/probe"
)

// TestGoldenProbeInvariants sweeps the golden grid — every scheme
// including the base and upper-bound machines, on both pinned benchmarks —
// and enforces the probe layer's three contracts on each cell:
//
//  1. Passivity: the probed result's digest equals the detached result's
//     (job.ResultDigest compares the full measurement record).
//  2. Totality: the attribution report's bucket sum equals its total
//     equals stats.Run.Cycles — the stall taxonomy misses nothing and
//     double-counts nothing.
//  3. Balance identity: the balance histogram the probe rebuilds from its
//     per-cycle samples equals stats.Run.Balance bit-for-bit, proving the
//     sample stream the probe sees is the one the statistics are made of.
func TestGoldenProbeInvariants(t *testing.T) {
	opts := goldenOpts()
	ctx := context.Background()
	for _, scheme := range goldenSchemes() {
		for _, bench := range opts.Benchmarks {
			t.Run(scheme+"/"+bench, func(t *testing.T) {
				params := opts.Params
				j, err := job.Spec{
					Scheme:    scheme,
					Benchmark: bench,
					Warmup:    opts.Warmup,
					Measure:   opts.Measure,
					Params:    &params,
				}.Plan()
				if err != nil {
					t.Fatal(err)
				}
				detached, err := job.Direct{}.Run(ctx, j)
				if err != nil {
					t.Fatal(err)
				}
				at := probe.NewAttribution()
				probed, err := job.Direct{}.Run(job.WithProbe(ctx, func() core.Probe { return at }), j)
				if err != nil {
					t.Fatal(err)
				}
				if gd, pd := job.ResultDigest(detached), job.ResultDigest(probed); gd != pd {
					t.Errorf("probed result digest %s differs from detached %s (probe is not passive)", pd, gd)
				}
				rep := at.Report()
				if rep.Sum() != rep.TotalCycles {
					t.Errorf("taxonomy not exclusive: buckets sum to %d, total %d", rep.Sum(), rep.TotalCycles)
				}
				if rep.TotalCycles != probed.Cycles {
					t.Errorf("taxonomy not total: attributed %d cycles, run measured %d", rep.TotalCycles, probed.Cycles)
				}
				if *at.Balance() != probed.Balance {
					t.Errorf("probe-rebuilt balance histogram differs from stats.Run.Balance")
				}
			})
		}
	}
}

// TestGridAttribution runs a small grid with Opts.Attrib set and checks
// the plumbing end to end: every simulated cell has a retrievable report
// whose totals reconcile with the cell's measurements, the export carries
// the reports alongside unchanged digests, and the text renderer shows
// them.
func TestGridAttribution(t *testing.T) {
	opts := Options{Warmup: 2_000, Measure: 10_000,
		Benchmarks: []string{"go"}, Params: goldenOpts().Params}
	opts.Attrib = true
	res, err := Run([]string{"general"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{BaseScheme, "general"} {
		rep := res.Attribution(scheme, "go")
		if rep == nil {
			t.Fatalf("%s: no attribution recorded", scheme)
		}
		run := res.Get(scheme, "go")
		if rep.TotalCycles != run.Cycles || rep.Sum() != run.Cycles {
			t.Errorf("%s: attribution (%d total, %d summed) does not reconcile with %d measured cycles",
				scheme, rep.TotalCycles, rep.Sum(), run.Cycles)
		}
	}

	for _, cell := range res.Export().Cells {
		if cell.Attribution == nil {
			t.Errorf("%s/%s: export cell carries no attribution", cell.Job.Scheme, cell.Job.Benchmark)
		} else if cell.Attribution.TotalCycles != cell.Result.Cycles {
			t.Errorf("%s/%s: exported attribution disagrees with the exported result",
				cell.Job.Scheme, cell.Job.Benchmark)
		}
		if got := job.ResultDigest(cell.Result); got != cell.ResultDigest {
			t.Errorf("%s/%s: export digest drifted under attribution", cell.Job.Scheme, cell.Job.Benchmark)
		}
	}

	if txt := res.FormatAttribution(); !strings.Contains(txt, "general/go") {
		t.Errorf("attribution rendering misses the general/go cell:\n%s", txt)
	}

	// A grid without Attrib keeps the surfaces empty.
	opts.Attrib = false
	plain, err := Run([]string{"general"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Attribution("general", "go") != nil || plain.FormatAttribution() != "" {
		t.Error("unattributed grid still carries attribution")
	}
}
