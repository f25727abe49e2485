// Per-cycle benchmark suite for the simulator core, plus the steady-state
// allocation gate. `make bench-smoke` runs the benchmarks briefly; the
// repository's recorded performance comes from perfbench (BENCHMARK.json).
package core_test

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/steer"
	"repro/internal/trace"
)

// benchProgram builds the benchmark workload: a long counted loop whose
// body mixes the instruction classes in roughly SPECint proportions
// (simple ALU, loads and stores over a handful of hot addresses, forward
// branches, a multiply, and a short FP chain so asymmetric machines
// steer inter-cluster traffic). The outer count is large enough that the
// program never halts within any realistic b.N.
func benchProgram() *prog.Program { return buildBenchProgram(true) }

// runawayProgram is benchProgram without its unpredictable branch: a
// perfectly predicted loop whose fetch never waits on a misprediction, so
// only the fetch queue's bound holds the front end back from a stalled
// dispatcher.
func runawayProgram() *prog.Program { return buildBenchProgram(false) }

func buildBenchProgram(unpredictable bool) *prog.Program {
	name := "bench-loop"
	if !unpredictable {
		name = "bench-loop-runaway"
	}
	b := prog.NewBuilder(name)
	b.Space("mem", 8192)
	b.La(isa.R(20), "mem")
	for i := 1; i <= 12; i++ {
		b.Li(isa.R(i), int32(i*37))
	}
	for i := 0; i < 4; i++ {
		b.Fcvtif(isa.F(i), isa.R(1+i))
	}
	b.Li(isa.R(13), 12345) // LCG state for the unpredictable branch
	b.Li(isa.R(21), 1<<30)
	b.Label("outer")

	// ~40-instruction body. Hot addresses alias across iterations so the
	// LSQ sees forwarding and the D-cache stays warm.
	b.Add(isa.R(1), isa.R(2), isa.R(3))
	b.Sub(isa.R(4), isa.R(1), isa.R(5))
	b.And(isa.R(6), isa.R(4), isa.R(7))
	b.Or(isa.R(8), isa.R(6), isa.R(9))
	b.Xor(isa.R(10), isa.R(8), isa.R(11))
	b.Ld(isa.R(2), isa.R(20), 0)
	b.Addi(isa.R(2), isa.R(2), 1)
	b.St(isa.R(2), isa.R(20), 0)
	b.Ld(isa.R(3), isa.R(20), 64)
	b.Add(isa.R(5), isa.R(3), isa.R(2))
	b.Slt(isa.R(12), isa.R(5), isa.R(1))
	b.Beq(isa.R(12), isa.R(0), "skip1")
	b.Addi(isa.R(7), isa.R(7), 2)
	b.Label("skip1")
	b.Mul(isa.R(9), isa.R(7), isa.R(4))
	b.Srai(isa.R(9), isa.R(9), 3)
	b.Ld(isa.R(6), isa.R(20), 128)
	b.Xor(isa.R(6), isa.R(6), isa.R(9))
	b.St(isa.R(6), isa.R(20), 128)
	b.Lw(isa.R(11), isa.R(20), 256)
	b.Addi(isa.R(11), isa.R(11), 5)
	b.Sw(isa.R(11), isa.R(20), 256)
	b.Fadd(isa.F(0), isa.F(1), isa.F(2))
	b.Fmul(isa.F(3), isa.F(0), isa.F(1))
	b.Fsub(isa.F(2), isa.F(3), isa.F(0))
	b.Add(isa.R(1), isa.R(1), isa.R(10))
	b.Sub(isa.R(3), isa.R(3), isa.R(12))
	b.And(isa.R(5), isa.R(5), isa.R(8))
	b.Bne(isa.R(5), isa.R(6), "skip2")
	b.Addi(isa.R(8), isa.R(8), 3)
	b.Label("skip2")
	b.Ld(isa.R(4), isa.R(20), 512)
	b.Add(isa.R(4), isa.R(4), isa.R(1))
	b.St(isa.R(4), isa.R(20), 512)
	b.Or(isa.R(2), isa.R(2), isa.R(3))
	b.Xor(isa.R(7), isa.R(7), isa.R(2))
	// Data-dependent branch on an LCG bit: effectively unpredictable, so
	// fetch periodically blocks on a misprediction the way it does on real
	// workloads (without this, the perfectly predicted loop keeps the
	// fetch queue full behind a stalled dispatcher: runawayProgram).
	if unpredictable {
		b.Li(isa.R(15), 1103515245)
		b.Mul(isa.R(13), isa.R(13), isa.R(15))
		b.Addi(isa.R(13), isa.R(13), 12345)
		b.Srai(isa.R(14), isa.R(13), 16)
		b.Andi(isa.R(14), isa.R(14), 1)
		b.Beq(isa.R(14), isa.R(0), "skip3")
		b.Addi(isa.R(6), isa.R(6), 7)
		b.Label("skip3")
	}

	b.Addi(isa.R(21), isa.R(21), -1)
	b.Bne(isa.R(21), isa.R(0), "outer")
	b.Halt()
	return b.MustBuild()
}

// benchCase names one (config, scheme) point of the per-cycle suite.
type benchCase struct {
	name   string
	cfg    *config.Config
	scheme string
}

func benchCases() []benchCase {
	return []benchCase{
		{"base/naive", config.Base(), "naive"},
		{"n2/general", config.Clustered(), "general"},
		{"n2/ldst-slicebal", config.Clustered(), "ldst-slicebal"},
		{"n2-fifo/fifo", config.FIFOClustered(), "fifo"},
		{"n4/general", config.ClusteredN(4), "general"},
		{"n8/general", config.ClusteredN(8), "general"},
	}
}

// newBenchMachine builds and warms a machine for the case: 20k cycles is
// enough for every static PC to have been steered (policy tables built),
// all hot cache lines resident and the allocator-visible data structures
// (ROB, queues, event wheel) at steady-state size.
func newBenchMachine(tb testing.TB, bc benchCase) *core.Machine {
	tb.Helper()
	return newBenchMachineWithOracle(tb, bc, nil)
}

// newBenchMachineWithOracle is newBenchMachine with an explicit oracle
// (nil = the live emulator), so the suite covers the replay front end
// under the same steady-state conditions as the live one.
func newBenchMachineWithOracle(tb testing.TB, bc benchCase, o core.Oracle) *core.Machine {
	tb.Helper()
	return newWarmMachine(tb, bc, benchProgram(), o)
}

// newWarmMachine builds and warms the case's machine over p.
func newWarmMachine(tb testing.TB, bc benchCase, p *prog.Program, o core.Oracle) *core.Machine {
	tb.Helper()
	m := newCaseMachine(tb, bc, p, o)
	for i := 0; i < 20_000; i++ {
		if err := m.StepOneCycle(); err != nil {
			tb.Fatal(err)
		}
	}
	// Measure with statistics collection on: that is what every production
	// run (dcabench, the experiment grid) pays per cycle.
	m.BeginMeasurement()
	return m
}

// newCaseMachine builds the case's machine over p, fetching from o (nil =
// the live emulator).
func newCaseMachine(tb testing.TB, bc benchCase, p *prog.Program, o core.Oracle) *core.Machine {
	tb.Helper()
	params := steer.DefaultParams()
	params.Clusters = bc.cfg.NumClusters()
	st, err := steer.NewWithParams(bc.scheme, p, params)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := core.NewWithOracle(bc.cfg, p, st, o)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// newReplayBenchMachine records the benchmark program's oracle stream
// (internal/trace) and returns a warmed machine fetching from the
// replayed recording instead of the live emulator — the configuration
// whose per-cycle cost the record-once/replay-many layer banks on.
func newReplayBenchMachine(tb testing.TB, bc benchCase) *core.Machine {
	tb.Helper()
	p := benchProgram()
	rec := trace.NewRecorder(p)
	// The stream is architectural: how far it must extend depends only on
	// how many instructions the consumer fetches. 300k instructions cover
	// the 20k warm-up cycles plus the measured cycles at any fetch rate
	// the machine can sustain; a shortfall fails loudly (ErrOracleExhausted).
	if err := rec.Extend(300_000); err != nil {
		tb.Fatal(err)
	}
	rep, err := trace.NewReplayer(rec.Finalize(0), p)
	if err != nil {
		tb.Fatal(err)
	}
	return newBenchMachineWithOracle(tb, bc, rep)
}

// BenchmarkMachineCycle measures the steady-state cost of one simulated
// cycle (ns/op = ns per cycle) for each representative (config, scheme)
// point. The acceptance bar for the allocation-free rewrite was >=2x
// cycles/sec over the pre-optimization baseline with 0 allocs/op; see
// EXPERIMENTS.md ("Earlier per-layer readings") for the recorded
// before/after.
func BenchmarkMachineCycle(b *testing.B) {
	for _, bc := range benchCases() {
		b.Run(bc.name, func(b *testing.B) {
			m := newBenchMachine(b, bc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.StepOneCycle(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if m.HaltCommitted() {
				b.Fatal("benchmark program halted; enlarge its loop count")
			}
		})
	}
}

// TestSteadyStateCycleAllocs is the allocation-free invariant, enforced:
// after warm-up, stepping the machine must not allocate at all, on every
// configuration the benchmark suite covers. A regression here is a
// performance bug even when all behavioural tests pass; ARCHITECTURE.md
// documents the invariant and the structures that uphold it. Every case
// counts each heap allocation over 20k cycles (mallocsOver) and requires
// exactly 0: an allocation that happens once per few thousand cycles —
// a pool running dry, a scratch buffer growing — is still one too many.
func TestSteadyStateCycleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full warm-up")
	}
	const cycles = 20_000
	for _, bc := range benchCases() {
		t.Run(bc.name, func(t *testing.T) {
			m := newBenchMachine(t, bc)
			if n := mallocsOver(t, m, cycles); n != 0 {
				t.Fatalf("steady-state cycle loop allocated %d times in %d cycles (want 0)", n, cycles)
			}
		})
	}
	// A runaway front end: with no misprediction to stop it, fetch would
	// outrun the stalled dispatcher without limit if the fetch queue were
	// not bounded, and an unbounded queue allocates as it grows. The
	// window is long enough that a doubling ring would grow inside it.
	for _, bc := range []benchCase{
		{"n2/general", config.Clustered(), "general"},
		{"n8/general", config.ClusteredN(8), "general"},
	} {
		t.Run(bc.name+"/runaway", func(t *testing.T) {
			m := newWarmMachine(t, bc, runawayProgram(), nil)
			if n := mallocsOver(t, m, cycles); n != 0 {
				t.Fatalf("runaway front end allocated %d times in %d cycles (want 0)", n, cycles)
			}
		})
	}
	// The replay front end (internal/trace) must hold the same invariant:
	// a machine fetching from a recorded trace steps allocation-free too.
	// One narrow and one wide machine cover both fetch-runahead profiles.
	for _, bc := range []benchCase{
		{"base/naive", config.Base(), "naive"},
		{"n2/general", config.Clustered(), "general"},
		{"n8/general", config.ClusteredN(8), "general"},
	} {
		t.Run(bc.name+"/replay", func(t *testing.T) {
			m := newReplayBenchMachine(t, bc)
			if n := mallocsOver(t, m, cycles); n != 0 {
				t.Fatalf("replaying cycle loop allocated %d times in %d cycles (want 0)", n, cycles)
			}
		})
	}
}

// mallocsOver steps m for the given number of cycles and returns the
// heap allocations made meanwhile. Unlike testing.AllocsPerRun, whose
// per-run average is truncated to an integer, it sees a single
// allocation anywhere in the window.
func mallocsOver(t *testing.T, m *core.Machine, cycles int) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		if err := m.StepOneCycle(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkMachineRun measures end-to-end simulation throughput including
// machine construction amortized away: instructions committed per second
// on the benchmark loop (the number EXPERIMENTS.md's window-length
// sensitivity section is based on).
func BenchmarkMachineRun(b *testing.B) {
	bc := benchCase{"n2/general", config.Clustered(), "general"}
	m := newBenchMachine(b, bc)
	start := m.CommittedInstructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepOneCycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	committed := m.CommittedInstructions() - start
	if b.N > 0 {
		b.ReportMetric(float64(committed)/float64(b.N), "instrs/cycle")
	}
}
