package steer

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/rdg"
)

// feed runs the program functionally and presents each committed
// instruction to the policy in decode order, mimicking the core's calls.
// It returns per-PC steering decisions of the final iteration.
func feed(t *testing.T, p *prog.Program, s core.Steerer, max uint64) map[int]core.ClusterID {
	t.Helper()
	m := emu.New(p)
	decisions := make(map[int]core.ClusterID)
	for i := uint64(0); i < max && !m.Halted; i++ {
		if i%8 == 0 {
			s.OnCycle(i/8, []int{3, 3})
		}
		st, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		info := &core.SteerInfo{
			Cycle:  i / 8,
			PC:     st.PC,
			Inst:   st.Inst,
			Forced: forcedFor(st.Inst),
		}
		for _, r := range st.Inst.Srcs(nil) {
			if info.NumSrcs >= 2 {
				break
			}
			info.SrcReg[info.NumSrcs] = r
			info.SrcIn[info.NumSrcs] = core.ClusterSet(0).Add(core.IntCluster)
			info.NumSrcs++
		}
		c := s.Steer(info)
		if info.Forced != core.AnyCluster {
			c = info.Forced
		}
		decisions[st.PC] = c
	}
	return decisions
}

func forcedFor(in isa.Inst) core.ClusterID {
	if in.Op.Class() == isa.ClassComplexInt {
		return core.IntCluster
	}
	if d, ok := in.Dst(); ok && d.IsFP() {
		return core.FPCluster
	}
	for _, r := range in.Srcs(nil) {
		if r.IsFP() {
			return core.FPCluster
		}
	}
	return core.AnyCluster
}

// mustFig2 loads the paper's running example (Figure 2), whose comments
// locate each significant instruction.
func mustFig2(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.AssembleFile("../../examples/testdata/fig2.s")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLdStSliceMembershipOnFigure2(t *testing.T) {
	p := mustFig2(t)
	s := NewSlice(LdStSlice)
	feed(t, p, s, 10_000)

	// Address chains must be in the LdSt slice. (PC 1, the one-time loop
	// initialization of r1, executes before the slice learning converges
	// and is never re-decoded, so the incremental hardware algorithm never
	// flags it — a faithful property of the paper's mechanism.)
	inSlice := []int{2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17}
	for _, pc := range inSlice {
		if !s.InSlice(pc) {
			t.Errorf("PC %d (%v) should be in the LdSt slice", pc, p.Text[pc])
		}
	}
	// Branch chain (r9), the div (store *data*), and branches themselves
	// must not be.
	notInSlice := []int{0, 10, 11, 12, 13, 18}
	for _, pc := range notInSlice {
		if s.InSlice(pc) {
			t.Errorf("PC %d (%v) should NOT be in the LdSt slice", pc, p.Text[pc])
		}
	}
}

func TestBrSliceMembershipOnFigure2(t *testing.T) {
	p := mustFig2(t)
	s := NewSlice(BrSlice)
	feed(t, p, s, 10_000)

	// The loop-control chain (r9 init, r1 increment) and the compare input
	// load C[i] belong to the Br slice; the EA chain of that load does not
	// (the RDG splits memory instructions into disconnected nodes). PC 1
	// executes once before learning converges, so it is never flagged.
	inSlice := []int{0, 9, 10, 17, 18}
	for _, pc := range inSlice {
		if !s.InSlice(pc) {
			t.Errorf("PC %d (%v) should be in the Br slice", pc, p.Text[pc])
		}
	}
	notInSlice := []int{2, 3, 4, 6, 7, 8, 11, 14, 15, 16}
	for _, pc := range notInSlice {
		if s.InSlice(pc) {
			t.Errorf("PC %d (%v) should NOT be in the Br slice", pc, p.Text[pc])
		}
	}
}

// TestHardwareSliceConvergesToFormalSlice: the slice learner converges to
// the formal dynamic-RDG slices of internal/rdg on steady-state code, for
// both slice kinds and through both of its steering users. The hardware
// learns one producer level per execution, so after enough iterations the
// loop body matches.
func TestHardwareSliceConvergesToFormalSlice(t *testing.T) {
	p := mustFig2(t)
	g, err := rdg.BuildDynamic(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	formal := map[SliceKind]map[int]bool{LdStSlice: g.LdStSlice(), BrSlice: g.BrSlice()}
	type learning interface {
		core.Steerer
		has(pc int) bool
	}
	for _, kind := range []SliceKind{LdStSlice, BrSlice} {
		for _, hw := range []learning{NewSlice(kind), NewSliceBalance(kind, DefaultParams())} {
			feed(t, p, hw, 5_000)
			// Compare on loop-body PCs (2..18); one-shot init code may
			// never be re-decoded, which is a real property of the
			// hardware scheme.
			for pc := 2; pc <= 18; pc++ {
				if hw.has(pc) != formal[kind][pc] {
					t.Errorf("%s: PC %d: hardware=%v formal=%v", hw.Name(), pc, hw.has(pc), formal[kind][pc])
				}
			}
		}
	}
}

func TestSliceSteeringDecisions(t *testing.T) {
	p := mustFig2(t)
	s := NewSlice(LdStSlice)
	dec := feed(t, p, s, 10_000)
	// Once learned, slice members steer to the integer cluster, the rest
	// to the FP cluster (div is forced integer).
	if dec[5] != core.IntCluster || dec[16] != core.IntCluster {
		t.Error("memory instructions not steered to the integer cluster")
	}
	if dec[11] != core.IntCluster {
		t.Error("div must be forced to the integer cluster")
	}
	if dec[12] != core.FPCluster { // j l2: not in LdSt slice
		t.Errorf("non-slice jump steered to %v, want fp", dec[12])
	}
}

// inInt and inFP are ClusterSet shorthands for the two-cluster tests.
var (
	inInt = core.ClusterSet(0).Add(core.IntCluster)
	inFP  = core.ClusterSet(0).Add(core.FPCluster)
)

func TestImbalanceCounter(t *testing.T) {
	im := newImbalance(DefaultParams())
	// Strong FP overload: readyFP > width, readyInt < width.
	for i := 0; i < 20; i++ {
		im.onCycle([]int{0, 12})
	}
	if !im.strong() {
		t.Fatalf("counter %d not strong under sustained overload", im.value())
	}
	if im.leastLoaded(im.allClusters(), []int{0, 12}) != core.IntCluster {
		t.Fatal("least loaded should be the integer cluster")
	}
	if !im.overloaded(core.FPCluster) || im.overloaded(core.IntCluster) {
		t.Fatal("overloaded cluster misidentified")
	}
	// Balanced epochs decay the window average.
	for i := 0; i < 20; i++ {
		im.onCycle([]int{3, 3})
	}
	if im.strong() {
		t.Fatalf("counter %d still strong after balanced cycles", im.value())
	}
}

func TestImbalanceIgnoresBalancedOverload(t *testing.T) {
	im := newImbalance(DefaultParams())
	// Both clusters above issue width: both issue at full rate, I2 = 0.
	for i := 0; i < 20; i++ {
		im.onCycle([]int{10, 20})
	}
	if im.value() != 0 {
		t.Fatalf("I2 counted while both clusters saturated: %d", im.value())
	}
}

func TestImbalanceI1Cumulative(t *testing.T) {
	im := newImbalance(DefaultParams())
	im.onCycle([]int{0, 0})
	for i := 0; i < 8; i++ {
		im.onSteer(core.FPCluster)
	}
	if im.value() != 8 {
		t.Fatalf("I1 after 8 FP steers = %d, want 8", im.value())
	}
	if !im.strong() {
		t.Fatal("8 same-cluster steers must trip the threshold")
	}
	// I1 is the cumulative steered-count difference: it persists across
	// cycles and is worked off by steering the other way.
	im.onCycle([]int{0, 0})
	if im.value() != 8 {
		t.Fatalf("I1 did not persist: %d", im.value())
	}
	for i := 0; i < 8; i++ {
		im.onSteer(core.IntCluster)
	}
	if im.value() != 0 {
		t.Fatalf("I1 not worked off by opposite steers: %d", im.value())
	}
}

func TestImbalanceNWayArgmin(t *testing.T) {
	p := DefaultParams()
	p.Clusters = 4
	im := newImbalance(p)
	// Cluster 2 far above width, clusters 0/3 far below, cluster 1 busy:
	// the gate opens and the per-cluster counters separate.
	for i := 0; i < 20; i++ {
		im.onCycle([]int{0, 6, 12, 1})
	}
	if !im.strong() {
		t.Fatal("4-way overload not detected as strong")
	}
	if !im.overloaded(core.ClusterID(2)) {
		t.Error("cluster 2 should be overloaded")
	}
	if im.overloaded(core.ClusterID(0)) {
		t.Error("cluster 0 should not be overloaded")
	}
	if got := im.leastLoaded(im.allClusters(), []int{0, 6, 12, 1}); got != core.ClusterID(0) {
		t.Errorf("least loaded = %v, want cluster 0", got)
	}
	// Restricting the candidates must respect the restriction.
	cands := core.ClusterSet(0).Add(core.ClusterID(1)).Add(core.ClusterID(2))
	if got := im.leastLoaded(cands, []int{0, 6, 12, 1}); got != core.ClusterID(1) {
		t.Errorf("least loaded of {1,2} = %v, want cluster 1", got)
	}
}

func TestImbalanceTwoClusterDeltaMatchesSignedCounter(t *testing.T) {
	// The N-way counters must reproduce the paper's single signed counter
	// exactly on two clusters: replay a mixed history on the generalized
	// machinery and on a hand-coded signed reference.
	im := newImbalance(DefaultParams())
	signed := struct {
		window []int
		idx    int
		sum    int
		filled int
		i1     int
	}{window: make([]int, DefaultParams().Window)}
	width := DefaultParams().IssueWidth
	limit := 4 * DefaultParams().Threshold

	step := func(readyInt, readyFP int, steers []core.ClusterID) {
		im.onCycle([]int{readyInt, readyFP})
		i2 := 0
		switch {
		case readyFP > width && readyInt < width:
			i2 = readyFP - readyInt
		case readyInt > width && readyFP < width:
			i2 = readyFP - readyInt
		}
		signed.sum -= signed.window[signed.idx]
		signed.window[signed.idx] = i2
		signed.sum += i2
		signed.idx = (signed.idx + 1) % len(signed.window)
		if signed.filled < len(signed.window) {
			signed.filled++
		}
		for _, c := range steers {
			im.onSteer(c)
			if c == core.FPCluster {
				if signed.i1 < limit {
					signed.i1++
				}
			} else if signed.i1 > -limit {
				signed.i1--
			}
		}
		want := signed.i1
		if signed.filled > 0 {
			want = signed.sum/signed.filled + signed.i1
		}
		if got := im.value(); got != want {
			t.Fatalf("generalized counter %d != signed reference %d", got, want)
		}
	}

	histories := [][3]int{ // readyInt, readyFP, net FP steers (neg = int)
		{0, 12, 3}, {12, 0, -2}, {3, 3, 1}, {9, 1, -4}, {1, 9, 6},
		{5, 5, -1}, {0, 0, 40}, {2, 11, -40}, {6, 2, 2}, {4, 4, 0},
	}
	for _, h := range histories {
		var steers []core.ClusterID
		n := h[2]
		c := core.FPCluster
		if n < 0 {
			n, c = -n, core.IntCluster
		}
		for i := 0; i < n; i++ {
			steers = append(steers, c)
		}
		step(h[0], h[1], steers)
	}
}

func TestGeneralFollowsOperands(t *testing.T) {
	s := NewGeneral(DefaultParams())
	info := &core.SteerInfo{Forced: core.AnyCluster, NumSrcs: 2}
	info.SrcIn = [2]core.ClusterSet{inFP, inFP}
	if c := s.Steer(info); c != core.FPCluster {
		t.Errorf("both operands FP, steered to %v", c)
	}
	info2 := &core.SteerInfo{Forced: core.AnyCluster, NumSrcs: 2}
	info2.SrcIn = [2]core.ClusterSet{inInt, inInt}
	if c := s.Steer(info2); c != core.IntCluster {
		t.Errorf("both operands int, steered to %v", c)
	}
}

func TestGeneralBreaksTieTowardLeastLoaded(t *testing.T) {
	s := NewGeneral(DefaultParams())
	info := &core.SteerInfo{Forced: core.AnyCluster, NumSrcs: 2}
	info.SrcIn = [2]core.ClusterSet{inInt, inFP}
	info.Ready[0] = 9
	if c := s.Steer(info); c != core.FPCluster {
		t.Errorf("tie with loaded int cluster steered to %v", c)
	}
}

func TestGeneralRespectsStrongImbalance(t *testing.T) {
	s := NewGeneral(DefaultParams())
	for i := 0; i < 20; i++ {
		s.OnCycle(uint64(i), []int{12, 0}) // int cluster overloaded
	}
	info := &core.SteerInfo{Forced: core.AnyCluster, NumSrcs: 1}
	info.SrcIn[0] = inInt // operand home says int...
	if c := s.Steer(info); c != core.FPCluster {
		t.Errorf("strong imbalance ignored: steered to %v", c)
	}
}

func TestModuloAlternates(t *testing.T) {
	s := NewModulo()
	info := &core.SteerInfo{Forced: core.AnyCluster}
	a := s.Steer(info)
	b := s.Steer(info)
	c := s.Steer(info)
	if a == b || b == c || a != c {
		t.Fatalf("modulo sequence %v %v %v", a, b, c)
	}
	forced := &core.SteerInfo{Forced: core.FPCluster}
	if s.Steer(forced) != core.FPCluster {
		t.Fatal("modulo ignored Forced")
	}
}

func TestSliceBalanceAssignsAndRemaps(t *testing.T) {
	s := NewSliceBalance(LdStSlice, DefaultParams())
	p := mustFig2(t)
	feed(t, p, s, 10_000)
	if len(s.table) == 0 {
		t.Fatal("no slices recorded")
	}
	// Pick any assigned slice, force a strong overload toward its cluster,
	// and re-steer a member: the whole slice must re-map away.
	sid := -1
	var home core.ClusterID
	for id, st := range s.table {
		if st.assigned {
			sid, home = id, st.cluster
			break
		}
	}
	if sid < 0 {
		t.Fatal("no assigned slices after feeding figure 2")
	}
	for i := range s.im.i1 { // neutralize the steering history from feed
		s.im.i1[i] = 0
	}
	for i := 0; i < 20; i++ {
		if home == core.IntCluster {
			s.OnCycle(uint64(1000+i), []int{12, 0})
		} else {
			s.OnCycle(uint64(1000+i), []int{0, 12})
		}
	}
	before := s.Remaps
	info := &core.SteerInfo{Forced: core.AnyCluster, PC: sid, Inst: p.Text[sid]}
	s.Steer(info)
	if s.Remaps == before {
		t.Error("overloaded slice did not re-map")
	}
	if s.table[sid].cluster != home.Other() {
		t.Error("slice cluster unchanged after remap")
	}
}

func TestPriorityThresholdAdapts(t *testing.T) {
	params := DefaultParams()
	params.Epoch = 10
	s := NewPriority(BrSlice, params)
	// Mark one slice as highly critical and feed many instructions from it.
	for i := 0; i < 50; i++ {
		s.OnBranchResolved(7, true)
	}
	s.ids[7] = 7
	info := &core.SteerInfo{Forced: core.AnyCluster, PC: 7, Inst: isa.Inst{Op: isa.BNE}}
	start := s.Threshold()
	for cyc := uint64(0); cyc < 100; cyc++ {
		s.OnCycle(cyc, []int{2, 2})
		for k := 0; k < 4; k++ {
			s.Steer(info)
		}
	}
	// All instructions are in critical slices (fraction 1.0 > 0.5): the
	// threshold must rise.
	if s.Threshold() <= start {
		t.Errorf("threshold did not adapt upward: %d -> %d", start, s.Threshold())
	}
}

func TestPriorityCountsOnlyMatchingKind(t *testing.T) {
	br := NewPriority(BrSlice, DefaultParams())
	br.OnLoadResolved(3, true) // wrong kind: ignored
	if br.state(3).missCount != 0 {
		t.Error("Br priority counted a cache miss")
	}
	br.OnBranchResolved(3, true)
	if br.state(3).missCount != 1 {
		t.Error("Br priority missed a misprediction")
	}
	ld := NewPriority(LdStSlice, DefaultParams())
	ld.OnBranchResolved(3, true) // ignored
	if ld.state(3).missCount != 0 {
		t.Error("LdSt priority counted a misprediction")
	}
	ld.OnLoadResolved(3, true)
	if ld.state(3).missCount != 1 {
		t.Error("LdSt priority missed a cache miss")
	}
}

func TestStaticPartitionerFreezesAssignment(t *testing.T) {
	p := mustFig2(t)
	s, err := NewStatic(p, LdStSlice, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	// Address-chain instructions must be fixed to the integer cluster.
	for _, pc := range []int{4, 5, 8, 9, 15, 16, 17} {
		if c := s.Assignment(pc); c != core.IntCluster {
			t.Errorf("PC %d assigned %v, want int", pc, c)
		}
	}
	// The div's slice-free data computation goes to the FP cluster in the
	// static table (the datapath constraint overrides at dispatch).
	if c := s.Assignment(11); c != core.FPCluster {
		t.Errorf("PC 11 assigned %v, want fp (pre-constraint)", c)
	}
	// Decisions are stable: same PC always steers the same way.
	info := &core.SteerInfo{Forced: core.AnyCluster, PC: 4}
	first := s.Steer(info)
	for i := 0; i < 10; i++ {
		if s.Steer(info) != first {
			t.Fatal("static assignment varied across instances")
		}
	}
}

func TestRegistryBuildsEverything(t *testing.T) {
	p := mustFig2(t)
	for _, name := range Names() {
		s, err := New(name, p)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%q: empty Name()", name)
		}
		if !strings.Contains(name, "static") && s.Name() != name && name != "naive" {
			// naive maps to core.NaiveSteerer with Name "naive" too.
			t.Errorf("Name() = %q, registry key %q", s.Name(), name)
		}
	}
	if _, err := New("bogus", p); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSliceKindString(t *testing.T) {
	if LdStSlice.String() != "ldst" || BrSlice.String() != "br" {
		t.Fatal("SliceKind names wrong")
	}
}
