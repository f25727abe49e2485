package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/stats"
)

// moduloSteerer alternates clusters for steerable instructions (the paper's
// modulo scheme, reimplemented minimally for core tests).
type moduloSteerer struct {
	NopSteerer
	next ClusterID
}

func (s *moduloSteerer) Name() string { return "test-modulo" }

func (s *moduloSteerer) Steer(info *SteerInfo) ClusterID {
	if info.Forced != AnyCluster {
		return info.Forced
	}
	c := s.next
	s.next = (s.next + 1) % ClusterID(info.Clusters())
	return c
}

func mustProg(t *testing.T, src string) *prog.Program {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runCore(t *testing.T, cfg *config.Config, p *prog.Program, st Steerer, max uint64) *stats.Run {
	t.Helper()
	m, err := New(cfg, p, st)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(max)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

const straightLine = `
.text
  addi r1, r0, 1
  addi r2, r0, 2
  addi r3, r0, 3
  addi r4, r0, 4
  addi r5, r0, 5
  addi r6, r0, 6
  addi r7, r0, 7
  addi r8, r0, 8
  halt
`

func TestCommitCountMatchesOracle(t *testing.T) {
	p := mustProg(t, straightLine)
	// Functional reference.
	ref := emu.New(p)
	n, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	if r.Instructions != n {
		t.Fatalf("timing committed %d, oracle executed %d", r.Instructions, n)
	}
}

// wideLoop builds an endless loop of independent addis (no register
// sources, so no communications under any steering).
func wideLoop() *prog.Program {
	b := prog.NewBuilder("wide")
	b.Label("top")
	for i := 0; i < 800; i++ {
		b.Addi(isa.R(1+i%8), isa.R(0), int32(i))
	}
	b.Jmp("top")
	return b.MustBuild()
}

func runWarm(t *testing.T, cfg *config.Config, p *prog.Program, st Steerer) *stats.Run {
	t.Helper()
	m, err := New(cfg, p, st)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunWithWarmup(4000, 8000)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestIndependentAddsReachHighIPC(t *testing.T) {
	p := wideLoop()
	naive := runWarm(t, config.Clustered(), p, NaiveSteerer{})
	modulo := runWarm(t, config.Clustered(), p, &moduloSteerer{})

	// Naive puts everything on cluster 0 (3 ALUs): IPC near 3.
	if ipc := naive.IPC(); ipc < 2.2 || ipc > 3.2 {
		t.Errorf("naive IPC = %.2f, want ~3", ipc)
	}
	// Modulo uses both clusters (6 ALUs): clearly faster. These addis have
	// no register sources, so no copies are needed.
	if ipc := modulo.IPC(); ipc < 4.0 {
		t.Errorf("modulo IPC = %.2f, want > 4", ipc)
	}
	if modulo.Copies != 0 {
		t.Errorf("independent addis generated %d copies", modulo.Copies)
	}
	if naive.Steered[1] != 0 {
		t.Errorf("naive steered %d instructions to the FP cluster", naive.Steered[1])
	}
	if modulo.Steered[0] == 0 || modulo.Steered[1] == 0 {
		t.Error("modulo did not use both clusters")
	}
}

func TestDependentChainSerializes(t *testing.T) {
	b := prog.NewBuilder("chain")
	b.Addi(rreg(1), rreg(0), 1)
	for i := 0; i < 400; i++ {
		b.Addi(rreg(1), rreg(1), 1)
	}
	b.Halt()
	p := b.MustBuild()
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	// A dependent chain of 1-cycle ops commits about 1 per cycle.
	if ipc := r.IPC(); ipc > 1.2 {
		t.Errorf("dependent chain IPC = %.2f, want ~1", ipc)
	}
}

func TestModuloChainPaysCommunication(t *testing.T) {
	// A dependent chain under modulo steering ping-pongs between clusters,
	// inserting a copy per hop: it must be slower than naive and must
	// report communications.
	b := prog.NewBuilder("chain")
	b.Addi(rreg(1), rreg(0), 1)
	for i := 0; i < 400; i++ {
		b.Addi(rreg(1), rreg(1), 1)
	}
	b.Halt()
	p := b.MustBuild()
	naive := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	modulo := runCore(t, config.Clustered(), p, &moduloSteerer{}, 0)
	if modulo.Copies == 0 {
		t.Fatal("modulo chain generated no copies")
	}
	if modulo.Cycles <= naive.Cycles {
		t.Errorf("modulo (%d cycles) not slower than naive (%d) on a chain",
			modulo.Cycles, naive.Cycles)
	}
	if modulo.CriticalCopies == 0 {
		t.Error("chain copies should be critical (consumer waiting)")
	}
	if modulo.CriticalCopies > modulo.Copies {
		t.Error("critical copies exceed total copies")
	}
}

func TestLoadStoreProgram(t *testing.T) {
	src := `
.data
arr: .space 800
.text
  li   r1, arr
  li   r2, 0
  li   r3, 100
loop:
  st   r2, 0(r1)
  ld   r4, 0(r1)
  add  r5, r5, r4
  addi r1, r1, 8
  addi r2, r2, 1
  bne  r2, r3, loop
  halt
`
	p := mustProg(t, src)
	ref := emu.New(p)
	n, err := ref.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	if r.Instructions != n {
		t.Fatalf("committed %d, oracle %d", r.Instructions, n)
	}
	if r.IPC() <= 0.5 {
		t.Errorf("load/store loop IPC = %.2f suspiciously low", r.IPC())
	}
}

func TestBranchyLoopCountsBranches(t *testing.T) {
	src := `
.text
  li   r1, 0
  li   r2, 2000
  li   r5, 1
loop:
  and  r3, r1, r5
  beq  r3, r0, even
  addi r4, r4, 3
  j    next
even:
  addi r4, r4, 1
next:
  addi r1, r1, 1
  bne  r1, r2, loop
  halt
`
	p := mustProg(t, src)
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	if r.Branches == 0 {
		t.Fatal("no branches recorded")
	}
	// The alternating pattern is learnable: misprediction rate must be low
	// after gshare warms up.
	if rate := r.MispredictRate(); rate > 0.2 {
		t.Errorf("mispredict rate %.2f on a learnable pattern", rate)
	}
}

func TestFunctionCallsViaRAS(t *testing.T) {
	src := `
.text
  li   r10, 0
  li   r11, 500
loop:
  jal  r31, leaf
  addi r10, r10, 1
  bne  r10, r11, loop
  halt
leaf:
  addi r12, r12, 1
  jr   r31
`
	p := mustProg(t, src)
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	// Returns predicted by the RAS: near-zero mispredictions.
	if rate := r.MispredictRate(); rate > 0.05 {
		t.Errorf("RAS-predicted returns mispredicting at %.2f", rate)
	}
	if r.Instructions == 0 {
		t.Fatal("nothing committed")
	}
}

func TestFPProgramOnClusteredMachine(t *testing.T) {
	src := `
.data
v: .double 1.0, 2.0, 3.0, 4.0
.text
  li   r1, v
  li   r2, 4
  li   r3, 0
loop:
  fld  f1, 0(r1)
  fadd f2, f2, f1
  fmul f3, f2, f1
  addi r1, r1, 8
  addi r3, r3, 1
  bne  r3, r2, loop
  fcvtfi r4, f2
  halt
`
	p := mustProg(t, src)
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	if r.Steered[1] == 0 {
		t.Error("FP instructions did not reach the FP cluster")
	}
	// FLD needs its integer base register in the FP cluster: copies occur.
	if r.Copies == 0 {
		t.Error("expected copies for FP loads' base addresses")
	}
}

func TestBaseMachineRunsIntCodeOnOneCluster(t *testing.T) {
	p := mustProg(t, straightLine)
	r := runCore(t, config.Base(), p, NaiveSteerer{}, 0)
	if r.Steered[1] != 0 {
		t.Errorf("base machine steered %d int instructions to FP cluster", r.Steered[1])
	}
	if r.Copies != 0 {
		t.Errorf("base machine generated %d copies for int code", r.Copies)
	}
}

func TestUpperBoundSingleCluster(t *testing.T) {
	p := wideLoop()
	r := runWarm(t, config.UpperBound(), p, NaiveSteerer{})
	if r.Copies != 0 {
		t.Error("upper bound generated copies")
	}
	// 6 simple ALUs, issue 16: independent addis should exceed 5 IPC.
	if ipc := r.IPC(); ipc < 5.0 {
		t.Errorf("upper-bound IPC = %.2f, want > 5", ipc)
	}
}

func TestFIFOModeRuns(t *testing.T) {
	src := `
.data
arr: .space 400
.text
  li   r1, arr
  li   r2, 0
  li   r3, 50
loop:
  ld   r4, 0(r1)
  add  r4, r4, r2
  st   r4, 0(r1)
  addi r1, r1, 8
  addi r2, r2, 1
  bne  r2, r3, loop
  halt
`
	p := mustProg(t, src)
	ref := emu.New(p)
	n, _ := ref.Run(0)
	r := runCore(t, config.FIFOClustered(), p, &moduloSteerer{}, 0)
	if r.Instructions != n {
		t.Fatalf("FIFO mode committed %d, oracle %d", r.Instructions, n)
	}
}

func TestRunWithMaxStops(t *testing.T) {
	src := `
.text
loop:
  addi r1, r1, 1
  j    loop
`
	p := mustProg(t, src)
	m, err := New(config.Clustered(), p, NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run(5000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 5000 || r.Instructions > 5100 {
		t.Fatalf("committed %d, want ~5000", r.Instructions)
	}
}

func TestWarmupResetsStats(t *testing.T) {
	src := `
.text
loop:
  addi r1, r1, 1
  addi r2, r2, 1
  j    loop
`
	p := mustProg(t, src)
	m, err := New(config.Clustered(), p, NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunWithWarmup(3000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions < 3000 || r.Instructions > 3100 {
		t.Fatalf("measured %d instructions, want ~3000", r.Instructions)
	}
	if r.Cycles == 0 || r.Balance.Samples != r.Cycles {
		t.Fatalf("balance samples %d != cycles %d", r.Balance.Samples, r.Cycles)
	}
}

func TestBalanceSampledEveryCycle(t *testing.T) {
	p := mustProg(t, straightLine)
	r := runCore(t, config.Clustered(), p, NaiveSteerer{}, 0)
	if r.Balance.Samples != r.Cycles {
		t.Fatalf("balance samples %d != cycles %d", r.Balance.Samples, r.Cycles)
	}
}

func TestStatsInvariants(t *testing.T) {
	src := `
.data
arr: .space 1600
.text
  li   r1, arr
  li   r2, 0
  li   r3, 200
loop:
  ld   r4, 0(r1)
  add  r5, r5, r4
  mul  r6, r5, r4
  st   r6, 0(r1)
  addi r1, r1, 8
  addi r2, r2, 1
  bne  r2, r3, loop
  halt
`
	p := mustProg(t, src)
	r := runCore(t, config.Clustered(), p, &moduloSteerer{}, 0)
	if r.CriticalCopies > r.Copies {
		t.Error("critical copies exceed total")
	}
	if r.Steered[0]+r.Steered[1] != r.Instructions {
		t.Errorf("steered %d+%d != committed %d", r.Steered[0], r.Steered[1], r.Instructions)
	}
	if r.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
	if r.ReplicatedRegsAvg < 0 || r.ReplicatedRegsAvg > 32 {
		t.Errorf("replicated regs avg = %f out of range", r.ReplicatedRegsAvg)
	}
}

// rreg abbreviates isa.R in builder-based tests.
func rreg(i int) isa.Reg { return isa.R(i) }

// TestMeasureReturnsDetachedRecord requires each measurement record to
// share nothing with its machine: continuing the measurement over a
// longer window must leave an earlier record as it was. (A record
// pointing into the machine would also keep the whole machine reachable
// for as long as a caller holds the result.)
func TestMeasureReturnsDetachedRecord(t *testing.T) {
	m, err := New(config.Clustered(), wideLoop(), &moduloSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.RunWithWarmup(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	cycles, steered := first.Cycles, append([]uint64(nil), first.Steered...)
	if _, err := m.Measure(6000); err != nil {
		t.Fatal(err)
	}
	if first.Cycles != cycles || first.Steered[0] != steered[0] || first.Steered[1] != steered[1] {
		t.Fatalf("earlier record changed by a later measurement: cycles %d → %d, steered %v → %v",
			cycles, first.Cycles, steered, first.Steered)
	}
}
