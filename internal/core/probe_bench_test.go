// Probe-seam cost benchmarks (EXPERIMENTS.md, "Earlier per-layer
// readings", records a reference run): the detached sub-benchmark must sit
// within noise of BenchmarkMachineCycle's matching case — the seam is a
// nil check on the hot path and nothing more — while the attached
// sub-benchmarks price what -attrib and -konata actually cost.
package core_test

import (
	"io"
	"testing"

	"repro/internal/config"
	"repro/internal/probe"
)

// BenchmarkProbeCycle measures the steady-state per-cycle cost of the
// n2/general case with the probe seam in its three interesting states:
// detached (every production run without -attrib), cycle attribution
// attached, and a full Konata export streaming to a discarded writer.
func BenchmarkProbeCycle(b *testing.B) {
	bc := benchCase{"n2/general", config.Clustered(), "general"}
	b.Run("detached", func(b *testing.B) {
		m := newBenchMachine(b, bc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.StepOneCycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("attrib", func(b *testing.B) {
		m := newBenchMachine(b, bc)
		m.SetProbe(probe.NewAttribution())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.StepOneCycle(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("konata", func(b *testing.B) {
		m := newBenchMachine(b, bc)
		k := probe.NewKonata(io.Discard)
		m.SetProbe(k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.StepOneCycle(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := k.Close(); err != nil {
			b.Fatal(err)
		}
	})
}
