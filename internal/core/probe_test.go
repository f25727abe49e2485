// Probe-seam passivity and attribution suite. Two properties lock the
// introspection layer (ARCHITECTURE.md, "The introspection layer"):
//
//  1. Passivity: every digest of the differential harness is bit-identical
//     with the full built-in probe stack attached — probes observe, they
//     never steer.
//  2. Totality: the stall taxonomy is total and exclusive — per-run class
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
	"repro/internal/workload"
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
// attached, through the warm/measure boundary (where the Measuring flag
// turns on).
func probedRun(t *testing.T, n int, scheme string, seed int64) (*stats.Run, *probe.Attribution) {
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
	at := probe.NewAttribution()
	m.SetProbe(at)
	r, err := m.RunWithWarmup(200, 0)
	if err != nil {
		t.Fatalf("n=%d %s seed=%d: %v", n, scheme, seed, err)
	}
	return r, at
}

// TestProbeAttributionSumsToCycles sweeps every registered scheme on the
// two-cluster machine and enforces taxonomy totality per run: the report's
// bucket sum equals its total equals stats.Run.Cycles, and the rebuilt
// balance histogram matches the run's bit-for-bit. (The golden-grid
// variant of this invariant lives in internal/experiments.)
func TestProbeAttributionSumsToCycles(t *testing.T) {
	for _, scheme := range steer.Names() {
		r, at := probedRun(t, 2, scheme, diffSeeds[1])
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
	r1, _ := probedRun(t, 2, "general", diffSeeds[0])

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

// steerLog is a probe that checks each steering decision against the
// dispatch that follows it: an instruction dispatched in its decision cycle
// must land on the decision's Final cluster. It also counts decisions by
// reason.
type steerLog struct {
	decided  map[uint64]core.SteerDecision // by ProgSeq, until dispatch
	reasons  [core.NumSteerReasons]int
	checked  int
	mismatch []string
}

func (l *steerLog) Fetch(uint64, *core.FetchInfo) {}
func (l *steerLog) Cycle(*core.CycleSample)       {}

func (l *steerLog) Steer(dec *core.SteerDecision) {
	l.decided[dec.ProgSeq] = *dec
	l.reasons[dec.Reason]++
}

func (l *steerLog) Event(cycle uint64, ev core.Event, d *core.DynInst) {
	if ev != core.EvDispatch || d.IsCopy {
		return
	}
	dec, ok := l.decided[d.ProgSeq]
	if !ok {
		return
	}
	delete(l.decided, d.ProgSeq)
	if dec.Cycle != cycle {
		return // dispatched on a later attempt: Final promised only this cycle
	}
	l.checked++
	if d.Cluster != dec.Final && len(l.mismatch) < 5 {
		l.mismatch = append(l.mismatch, fmt.Sprintf("cycle %d seq %d (%v): Final %d (%v), dispatched to %d",
			cycle, d.ProgSeq, dec.Inst, dec.Final, dec.Reason, d.Cluster))
	}
}

// clusterSeven answers a cluster no preset has, so the machine must clamp.
type clusterSeven struct{ core.NaiveSteerer }

func (clusterSeven) Steer(*core.SteerInfo) core.ClusterID { return 7 }

// TestSteerDecisionMatchesDispatch locks the probe's SteerDecision to the
// placement dispatch makes. Each case reaches the reasons it names — the
// policy's own answer and a datapath constraint on the paper's machine,
// the FIFO heuristic, the capability safety net on a 4-cluster machine
// whose cluster 3 lacks the FP mul/div and complex-integer units, and the
// clamp of an out-of-range answer — and every instruction dispatched in
// its decision cycle must land on the decision's Final cluster.
func TestSteerDecisionMatchesDispatch(t *testing.T) {
	noMulDiv := config.ClusteredN(4)
	noMulDiv.Clusters[3].FPMulDivUnits = 0
	noMulDiv.Clusters[3].ComplexIntUnits = 0
	for _, tc := range []struct {
		name   string
		cfg    *config.Config
		scheme string // "" steers with clusterSeven
		want   []core.SteerReason
	}{
		{"policy+forced", config.Clustered(), "general", []core.SteerReason{core.ReasonPolicy, core.ReasonForced}},
		{"fifo", config.FIFOClustered(), "fifo", []core.SteerReason{core.ReasonFIFO}},
		{"capability", noMulDiv, "random", []core.SteerReason{core.ReasonCapability}},
		{"clamped", config.Clustered(), "", []core.SteerReason{core.ReasonClamped}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := workload.Load("ijpeg")
			if err != nil {
				t.Fatal(err)
			}
			var st core.Steerer = clusterSeven{}
			if tc.scheme != "" {
				params := steer.DefaultParams()
				params.Clusters = tc.cfg.NumClusters()
				if st, err = steer.NewWithParams(tc.scheme, p, params); err != nil {
					t.Fatal(err)
				}
			}
			m, err := core.New(tc.cfg, p, st)
			if err != nil {
				t.Fatal(err)
			}
			l := &steerLog{decided: map[uint64]core.SteerDecision{}}
			m.SetProbe(l)
			if _, err := m.Run(20_000); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.want {
				if l.reasons[r] == 0 {
					t.Errorf("no decision with reason %v (counts %v)", r, l.reasons)
				}
			}
			if l.checked == 0 {
				t.Fatal("no instruction dispatched in its decision cycle")
			}
			for _, s := range l.mismatch {
				t.Error(s)
			}
		})
	}
}
