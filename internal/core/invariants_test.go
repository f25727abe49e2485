package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/prog"
)

// invariantPrograms builds a set of halting programs stressing different
// rename paths: plain chains, wide independent groups, memory traffic,
// branches, FP mixes and cross-cluster ping-pong.
func invariantPrograms() map[string]*prog.Program {
	out := map[string]*prog.Program{}

	chain := prog.NewBuilder("chain")
	chain.Addi(isa.R(1), isa.R(0), 1)
	for i := 0; i < 300; i++ {
		chain.Addi(isa.R(1), isa.R(1), 1)
	}
	chain.Halt()
	out["chain"] = chain.MustBuild()

	wide := prog.NewBuilder("wide")
	for i := 0; i < 300; i++ {
		wide.Addi(isa.R(1+i%20), isa.R(0), int32(i))
	}
	wide.Halt()
	out["wide"] = wide.MustBuild()

	memory := prog.NewBuilder("memory")
	memory.Space("buf", 4096)
	memory.La(isa.R(1), "buf")
	memory.Li(isa.R(2), 0)
	memory.Li(isa.R(3), 100)
	memory.Label("loop")
	memory.St(isa.R(2), isa.R(1), 0)
	memory.Ld(isa.R(4), isa.R(1), 0)
	memory.Add(isa.R(5), isa.R(5), isa.R(4))
	memory.Addi(isa.R(1), isa.R(1), 8)
	memory.Addi(isa.R(2), isa.R(2), 1)
	memory.Bne(isa.R(2), isa.R(3), "loop")
	memory.Halt()
	out["memory"] = memory.MustBuild()

	fpmix := prog.NewBuilder("fpmix")
	fpmix.Float64s("vals", 1.5, 2.5, 3.5, 4.5)
	fpmix.La(isa.R(1), "vals")
	fpmix.Li(isa.R(2), 0)
	fpmix.Li(isa.R(3), 50)
	fpmix.Label("loop")
	fpmix.Fld(isa.F(1), isa.R(1), 0)
	fpmix.Fadd(isa.F(2), isa.F(2), isa.F(1))
	fpmix.Fmul(isa.F(3), isa.F(2), isa.F(1))
	fpmix.Mul(isa.R(4), isa.R(2), isa.R(2))
	fpmix.Addi(isa.R(2), isa.R(2), 1)
	fpmix.Bne(isa.R(2), isa.R(3), "loop")
	fpmix.Fcvtfi(isa.R(5), isa.F(2))
	fpmix.Halt()
	out["fpmix"] = fpmix.MustBuild()

	return out
}

// TestRegisterConservationAcrossConfigs runs every stress program to
// completion on every machine/steering combination and checks that no
// physical register or LSQ entry leaks.
func TestRegisterConservationAcrossConfigs(t *testing.T) {
	type combo struct {
		name string
		cfg  *config.Config
		st   func() Steerer
	}
	combos := []combo{
		{"clustered-naive", config.Clustered(), func() Steerer { return NaiveSteerer{} }},
		{"clustered-modulo", config.Clustered(), func() Steerer { return &moduloSteerer{} }},
		{"base-naive", config.Base(), func() Steerer { return NaiveSteerer{} }},
		{"ub-naive", config.UpperBound(), func() Steerer { return NaiveSteerer{} }},
		{"fifo-modulo", config.FIFOClustered(), func() Steerer { return &moduloSteerer{} }},
		{"symmetric-modulo", config.Symmetric(), func() Steerer { return &moduloSteerer{} }},
		{"clustered4-modulo", config.ClusteredN(4), func() Steerer { return &moduloSteerer{} }},
		{"clustered8-modulo", config.ClusteredN(8), func() Steerer { return &moduloSteerer{} }},
		{"clustered4-ring-modulo", config.ClusteredNRing(4), func() Steerer { return &moduloSteerer{} }},
	}
	for name, p := range invariantPrograms() {
		for _, c := range combos {
			m, err := New(c.cfg, p, c.st())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.name, err)
			}
			if _, err := m.Run(0); err != nil {
				t.Fatalf("%s/%s: %v (%s)", name, c.name, err, m.dumpState())
			}
			checkRegisterConservation(t, m)
		}
	}
}

// TestInFlightNeverExceedsWindow samples the window occupancy every cycle.
func TestInFlightNeverExceedsWindow(t *testing.T) {
	p := invariantPrograms()["memory"]
	cfg := config.Clustered()
	m, err := New(cfg, p, &moduloSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	for !m.haltCommitted {
		if err := m.step(); err != nil {
			t.Fatal(err)
		}
		// Copies ride in the ROB beyond MaxInFlight; program instructions
		// alone must respect the window.
		prog := 0
		for i := 0; i < m.robLen; i++ {
			if !m.robAt(i).IsCopy {
				prog++
			}
		}
		if prog > cfg.MaxInFlight {
			t.Fatalf("window occupancy %d > %d at cycle %d", prog, cfg.MaxInFlight, m.cycle)
		}
		if m.cycle > 1_000_000 {
			t.Fatal("program did not halt")
		}
	}
}

// TestLSQAwaitingMatchesScan checks, every cycle of every stress program
// on several machines, that the LSQ's count of loads awaiting their access
// equals what a full ReadyLoads scan finds: the memory stage skips the
// scan on that count.
func TestLSQAwaitingMatchesScan(t *testing.T) {
	for name, p := range invariantPrograms() {
		for _, cfg := range []*config.Config{config.Clustered(), config.FIFOClustered(), config.ClusteredN(4)} {
			m, err := New(cfg, p, &moduloSteerer{})
			if err != nil {
				t.Fatal(err)
			}
			for !m.haltCommitted {
				if err := m.step(); err != nil {
					t.Fatal(err)
				}
				if got, want := m.ldst.Awaiting(), len(m.ldst.ReadyLoads(nil)); got != want {
					t.Fatalf("%s/%s cycle %d: awaiting %d, scan finds %d", name, cfg.Name, m.cycle, got, want)
				}
				if m.cycle > 1_000_000 {
					t.Fatal("program did not halt")
				}
			}
		}
	}
}

// TestIssueWidthRespected verifies per-cluster issue bandwidth from the
// issue event stream.
func TestIssueWidthRespected(t *testing.T) {
	p := invariantPrograms()["wide"]
	m, err := New(config.Clustered(), p, &moduloSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	perCycle := map[uint64][2]int{}
	m.SetProbe(eventProbe(func(cycle uint64, ev Event, d *DynInst) {
		if ev != EvIssue || d == nil {
			return
		}
		// Copies issue from their source cluster's slots.
		c := d.Cluster
		if d.IsCopy {
			c = d.SrcCluster
		}
		counts := perCycle[cycle]
		counts[c]++
		perCycle[cycle] = counts
	}))
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for cycle, counts := range perCycle {
		for c, n := range counts {
			if n > 4 {
				t.Fatalf("cycle %d: cluster %d issued %d > width 4", cycle, c, n)
			}
		}
	}
}

// eventProbe is the core tests' event observer: a function over the
// pipeline event stream, attached through the probe seam.
type eventProbe func(uint64, Event, *DynInst)

func (f eventProbe) Fetch(uint64, *FetchInfo)                 {}
func (f eventProbe) Event(cycle uint64, ev Event, d *DynInst) { f(cycle, ev, d) }
func (f eventProbe) Steer(*SteerDecision)                     {}
func (f eventProbe) Cycle(*CycleSample)                       {}
