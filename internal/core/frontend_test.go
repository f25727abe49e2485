package core_test

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/probe"
	"repro/internal/steer"
	"repro/internal/workload"
)

// countingOracle wraps the live oracle and records how much of the stream
// the machine needed: every consumed step, and for every peek at the next
// PC the step that peek reads.
type countingOracle struct {
	core.Oracle
	steps uint64
	need  uint64
}

func (o *countingOracle) StepInto(st *emu.Step) error {
	o.steps++
	o.need = max(o.need, o.steps)
	return o.Oracle.StepInto(st)
}

func (o *countingOracle) PC() int {
	o.need = max(o.need, o.steps+1)
	return o.Oracle.PC()
}

// TestFetchAheadBound locks core.FetchAheadBound, the bound job.Traced
// sizes its recordings by: on every golden configuration (2, 4 and 8
// clusters, out-of-order and FIFO queues, plus the base and upper-bound
// machines), a warm+measure run never consumes or peeks past window +
// bound steps of its stream. vortex is the runaway front end (well
// predicted, so fetch fills the queue behind a stalled dispatcher); go
// and compress mispredict often enough to keep it short.
func TestFetchAheadBound(t *testing.T) {
	const warmup, measure = 3_000, 7_000
	cases := []struct {
		cfg    *config.Config
		scheme string
	}{
		{config.Base(), "naive"},
		{config.UpperBound(), "naive"},
		{config.Clustered(), "general"},
		{config.FIFOClustered(), "fifo"},
		{config.ClusteredN(4), "general"},
		{config.ClusteredNFIFO(4), "fifo"},
		{config.ClusteredN(8), "general"},
		{config.ClusteredNFIFO(8), "fifo"},
	}
	for _, bench := range []string{"vortex", "go", "compress"} {
		p, err := workload.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			params := steer.DefaultParams()
			params.Clusters = tc.cfg.NumClusters()
			st, err := steer.NewWithParams(tc.scheme, p, params)
			if err != nil {
				t.Fatal(err)
			}
			o := &countingOracle{Oracle: core.EmuOracle{M: emu.New(p)}}
			m, err := core.NewWithOracle(tc.cfg, p, st, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunWithWarmup(warmup, measure); err != nil {
				t.Fatalf("%s/%s: %v", tc.cfg.Name, bench, err)
			}
			bound := core.FetchAheadBound(tc.cfg)
			if o.need > warmup+measure+bound {
				t.Errorf("%s/%s/%s: needed %d stream steps, window %d + bound %d = %d",
					tc.cfg.Name, tc.scheme, bench, o.need, warmup+measure, bound, warmup+measure+bound)
			}
			t.Logf("%s/%s/%s: %d steps past the window (bound %d)",
				tc.cfg.Name, tc.scheme, bench, o.need-(warmup+measure), bound)
		}
	}
}

// fullQueueProbe counts measured cycles spent with a full fetch queue and
// the deepest queue seen.
type fullQueueProbe struct {
	depth    int
	full     uint64
	maxDepth int
}

func (p *fullQueueProbe) Fetch(uint64, *core.FetchInfo)           {}
func (p *fullQueueProbe) Event(uint64, core.Event, *core.DynInst) {}
func (p *fullQueueProbe) Steer(*core.SteerDecision)               {}
func (p *fullQueueProbe) Cycle(s *core.CycleSample) {
	p.maxDepth = max(p.maxDepth, s.DqLen)
	if s.Measuring && s.DqLen == p.depth {
		p.full += s.N
	}
}

// TestFullFetchQueueAttributed runs vortex, whose front end fills the
// fetch queue behind a stalled dispatcher, with and without fast-forward:
// the queue never exceeds its depth, full-queue cycles occur and land in
// the ten stall classes (attribution still sums to the measured cycles),
// and skipping full-queue stretches changes neither the result nor the
// attribution.
func TestFullFetchQueueAttributed(t *testing.T) {
	p, err := workload.Load("vortex")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Clustered()
	run := func(ff bool) (*fullQueueProbe, *probe.Attribution, uint64) {
		st, err := steer.New("general", p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(cfg, p, st)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFastForward(ff)
		fq := &fullQueueProbe{depth: cfg.FetchQueue}
		at := probe.NewAttribution()
		m.SetProbe(probe.Multi(fq, at))
		r, err := m.RunWithWarmup(2_000, 8_000)
		if err != nil {
			t.Fatal(err)
		}
		return fq, at, r.Cycles
	}
	fq, at, cycles := run(true)
	if fq.maxDepth > cfg.FetchQueue {
		t.Fatalf("fetch queue reached %d entries, bound %d", fq.maxDepth, cfg.FetchQueue)
	}
	if fq.full == 0 {
		t.Fatal("vortex never filled the fetch queue; the back-pressure path is untested")
	}
	if rep := at.Report(); rep.Sum() != cycles || rep.TotalCycles != cycles {
		t.Fatalf("attribution sums to %d (total %d), run measured %d", rep.Sum(), rep.TotalCycles, cycles)
	}
	t.Logf("%d of %d measured cycles with a full fetch queue", fq.full, cycles)
	fqTick, atTick, cyclesTick := run(false)
	if cyclesTick != cycles || fqTick.full != fq.full || !reflect.DeepEqual(atTick.Report(), at.Report()) {
		t.Fatalf("fast-forward changed the run: %d vs %d cycles, %d vs %d full-queue cycles",
			cycles, cyclesTick, fq.full, fqTick.full)
	}
}
