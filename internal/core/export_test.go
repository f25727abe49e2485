package core

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// EventProbe exports the test-local event observer to the core_test
// suites (the differential harness's lock-step checker).
type EventProbe = eventProbe

// StepOneCycle advances the machine a single cycle. It exists for the
// per-cycle benchmark suite and the differential harness (package
// core_test), which need cycle-grained control that the public Run API
// deliberately does not expose.
func (m *Machine) StepOneCycle() error { return m.step() }

// OracleRegisters returns a copy of the embedded oracle's architectural
// register file; the differential harness compares it against an
// independently stepped reference emulator. It requires a live-emulator
// oracle (the default) — replayed traces carry no register file.
func (m *Machine) OracleRegisters() [isa.NumRegs]int64 { return m.oracle.(EmuOracle).M.Reg }

// HaltCommitted reports whether the machine has committed its HALT.
func (m *Machine) HaltCommitted() bool { return m.haltCommitted }

// BeginMeasurement turns on statistics collection, as a mid-run
// RunWithWarmup transition would; the benchmark suite uses it so measured
// cycles include the full stat-recording cost of a production run.
func (m *Machine) BeginMeasurement() {
	m.measuring = true
	m.beginMeasurement()
}

// checkRegisterConservation verifies that after a program has fully
// drained, every physical register is either free or holds a committed
// architectural mapping — i.e. the rename/commit protocol leaks nothing.
func checkRegisterConservation(t *testing.T, m *Machine) {
	t.Helper()
	if m.robLen != 0 {
		t.Fatalf("ROB not drained: %d entries", m.robLen)
	}
	for c := 0; c < m.cfg.NumClusters(); c++ {
		mapped := 0
		for r := range m.rt.entries {
			if m.rt.entries[r].valid.Has(ClusterID(c)) {
				mapped++
			}
		}
		total := m.cfg.Clusters[c].PhysRegs
		free := m.files[c].FreeCount()
		if free+mapped != total {
			t.Errorf("cluster %d: free %d + mapped %d != %d physical registers (leak of %d)",
				c, free, mapped, total, total-free-mapped)
		}
	}
	if m.ldst.Len() != 0 {
		t.Errorf("LSQ not drained: %d entries", m.ldst.Len())
	}
}

// inFlight exposes the window occupancy for tests.
func (m *Machine) inFlight() int { return m.robLen }

// dumpState prints a diagnostic snapshot (used when debugging failed
// invariant tests).
func (m *Machine) dumpState() string {
	s := fmt.Sprintf("cycle %d rob %d decodeQ %d", m.cycle, m.robLen, m.dqLen)
	for c := range m.iqs {
		s += fmt.Sprintf(" iq%d %d free-regs%d %d", c, m.iqs[c].Len(), c, m.files[c].FreeCount())
	}
	return s
}
