// Probe-seam passivity and attribution suite. Three properties lock the
// introspection layer (ARCHITECTURE.md, "The introspection layer"):
//
//  1. Passivity: every digest of the differential harness is bit-identical
//     with the full built-in probe stack attached — probes observe, they
//     never steer.
//  2. Fast-forward identity: cycle attribution over a fast-forwarding run
//     equals attribution over the same run stepped cycle by cycle, class
//     by class and balance bucket by balance bucket. The batched window
//     sample in tryFastForward rests on this being provable; this test
//     makes it falsifiable.
//  3. Totality: the stall taxonomy is total and exclusive — per-run class
//     totals sum exactly to stats.Run.Cycles, and the balance histogram
//     rebuilt from cycle samples equals stats.Run.Balance bit-for-bit.
package core_test

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/rdg"
	"repro/internal/stats"
	"repro/internal/steer"
)

// fullProbeStack builds the complete built-in probe complement — cycle
// attribution, steering forensics, a Konata export and a text pipetrace
// into the void — so passivity is proven for all four at once, fanned out
// through Multi.
func fullProbeStack() (core.Probe, *probe.Attribution) {
	at := probe.NewAttribution()
	return probe.Multi(
		at,
		&probe.Forensics{},
		probe.NewKonata(io.Discard),
		&probe.Text{W: io.Discard},
	), at
}

// TestProbePassivityDifferential re-runs the entire differential matrix —
// every scheme, every cluster count, every seed — with the full probe
// stack attached, and requires every digest to match the golden file that
// the unprobed harness is pinned to. Combined with TestDifferentialHarness
// (which runs detached), this is the bit-identity lock on the probe seam:
// attaching probes changes nothing, detaching them changes nothing.
func TestProbePassivityDifferential(t *testing.T) {
	want := readGoldenDigests(t)
	var got []string
	for _, n := range []int{2, 4, 8} {
		for _, scheme := range steer.Names() {
			for _, seed := range diffSeeds {
				stack, at := fullProbeStack()
				got = append(got, diffLineProbed(t, n, scheme, seed, stack))
				if at.Total() == 0 {
					t.Fatalf("n=%d %s seed=%d: attribution probe saw no measured cycles (seam detached?)", n, scheme, seed)
				}
			}
		}
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d digests, probed harness produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("probed digest diverged from golden (probe is not passive)\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}

// probedRun simulates one differential cell with an attribution probe
// attached and fast-forward set as given, through the warm/measure
// boundary (the boundary is where sample batching and the Measuring flag
// interact).
func probedRun(t *testing.T, n int, scheme string, seed int64, ff bool) (*stats.Run, *probe.Attribution) {
	t.Helper()
	p := rdg.RandomProgram(seed)
	cfg := diffConfigFor(scheme, n)
	params := steer.DefaultParams()
	params.Clusters = cfg.NumClusters()
	st, err := steer.NewWithParams(scheme, p, params)
	if err != nil {
		t.Fatalf("scheme %s: %v", scheme, err)
	}
	m, err := core.New(cfg, p, st)
	if err != nil {
		t.Fatalf("n=%d %s seed=%d: %v", n, scheme, seed, err)
	}
	m.SetFastForward(ff)
	at := probe.NewAttribution()
	m.SetProbe(at)
	r, err := m.RunWithWarmup(200, 0)
	if err != nil {
		t.Fatalf("n=%d %s seed=%d ff=%v: %v", n, scheme, seed, ff, err)
	}
	return r, at
}

// TestProbeFastForwardIdentity requires attribution over a fast-forwarded
// run to be bit-identical to attribution over per-cycle stepping: same
// measurement record, same per-class cycle totals, same rebuilt balance
// histogram. Any classifyCycle clause reading state that can change inside
// an idle window would fail here.
func TestProbeFastForwardIdentity(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, scheme := range []string{"general", "fifo"} {
			for _, seed := range diffSeeds {
				slowR, slowA := probedRun(t, n, scheme, seed, false)
				fastR, fastA := probedRun(t, n, scheme, seed, true)
				if !reflect.DeepEqual(slowR, fastR) {
					t.Fatalf("n=%d %s seed=%d: measurement records diverged under fast-forward\n  ff:        %+v\n  per-cycle: %+v",
						n, scheme, seed, *fastR, *slowR)
				}
				for c := core.StallClass(0); c < core.NumStallClasses; c++ {
					if slowA.Cycles(c) != fastA.Cycles(c) {
						t.Errorf("n=%d %s seed=%d: class %v attributed %d cycles per-cycle but %d fast-forwarded",
							n, scheme, seed, c, slowA.Cycles(c), fastA.Cycles(c))
					}
				}
				if slowA.Total() != fastA.Total() {
					t.Errorf("n=%d %s seed=%d: attributed totals diverged: per-cycle %d, ff %d",
						n, scheme, seed, slowA.Total(), fastA.Total())
				}
				if *slowA.Balance() != *fastA.Balance() {
					t.Errorf("n=%d %s seed=%d: probe balance histograms diverged under fast-forward",
						n, scheme, seed)
				}
			}
		}
	}
}

// TestProbeAttributionSumsToCycles sweeps every registered scheme on the
// two-cluster machine and enforces taxonomy totality per run: the report's
// bucket sum equals its total equals stats.Run.Cycles, and the rebuilt
// balance histogram matches the run's bit-for-bit. (The golden-grid
// variant of this invariant lives in internal/experiments.)
func TestProbeAttributionSumsToCycles(t *testing.T) {
	for _, scheme := range steer.Names() {
		r, at := probedRun(t, 2, scheme, diffSeeds[1], true)
		rep := at.Report()
		if rep.Sum() != rep.TotalCycles {
			t.Errorf("%s: taxonomy not exclusive: buckets sum to %d, total %d", scheme, rep.Sum(), rep.TotalCycles)
		}
		if rep.TotalCycles != r.Cycles {
			t.Errorf("%s: taxonomy not total: attributed %d cycles, run measured %d", scheme, rep.TotalCycles, r.Cycles)
		}
		if *at.Balance() != r.Balance {
			t.Errorf("%s: probe-rebuilt balance histogram differs from stats.Run.Balance", scheme)
		}
	}
}

// TestProbeDetach verifies the seam can be attached and detached across a
// run boundary: a detached machine simulates exactly like one that never
// had a probe (digest equality via the harness covers the behaviour; this
// covers the nil transition).
func TestProbeDetach(t *testing.T) {
	r1, _ := probedRun(t, 2, "general", diffSeeds[0], false)

	p := rdg.RandomProgram(diffSeeds[0])
	cfg := diffConfigFor("general", 2)
	params := steer.DefaultParams()
	params.Clusters = cfg.NumClusters()
	st, err := steer.NewWithParams("general", p, params)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(cfg, p, st)
	if err != nil {
		t.Fatal(err)
	}
	at := probe.NewAttribution()
	m.SetProbe(at)
	m.SetProbe(nil) // detach before running: the probe must see nothing
	r2, err := m.RunWithWarmup(200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if at.Total() != 0 {
		t.Fatalf("detached probe still observed %d cycles", at.Total())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("detached run diverged from probed run:\n  probed:   %+v\n  detached: %+v", *r1, *r2)
	}
}

// pipetrace runs src for max instructions (0 = to HALT) on the paper's
// machine under the text pipetrace probe and returns what it wrote.
func pipetrace(t *testing.T, src string, max, from, to uint64) string {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(config.Clustered(), p, core.NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	m.SetProbe(&probe.Text{W: &buf, From: from, To: to})
	if _, err := m.Run(max); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTextTracerOutput(t *testing.T) {
	out := pipetrace(t, `
.text
  addi r1, r0, 1
  add  r2, r1, r1
  halt
`, 0, 0, 0)
	for _, want := range []string{"dispatch", "issue", "complete", "commit", "addi r1, r0, 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestTextTracerCycleWindow(t *testing.T) {
	out := pipetrace(t, `
.text
loop:
  addi r1, r1, 1
  j loop
`, 2000, 100, 105)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var cyc uint64
		if _, err := fmt.Sscan(line, &cyc); err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		if cyc < 100 || cyc > 105 {
			t.Fatalf("trace line outside window: %q", line)
		}
	}
}
