package steer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/rdg"
)

// Static reproduces the compile-time partitioning of Sastry, Palacharla
// and Smith that Figure 3 (§3.3) compares against. Steering rule: each
// static instruction is assigned a fixed cluster — the integer cluster for
// the LdSt slice, the FP cluster for the rest — and every dynamic instance
// obeys that assignment. Like the plain slice schemes it is an inherently
// two-way partitioner and uses only clusters 0 and 1 on larger machines.
//
// The original derives the slice from compiler analysis; lacking the Alpha
// compiler, we derive it from a profiling pre-pass: the program runs
// functionally for a profiling window while the slice learner of the
// dynamic schemes records membership, which is then frozen (see DESIGN.md's
// steering table). This matches the defining property Figure 3 tests —
// all instances of one static instruction execute in one fixed cluster.
type Static struct {
	core.NopSteerer
	assign []core.ClusterID // indexed by PC over the program's text
	name   string
}

// ProfileWindow is the default number of dynamic instructions the static
// partitioner profiles.
const ProfileWindow = 200_000

// NewStatic profiles p for window dynamic instructions (0 uses
// ProfileWindow) and fixes the per-PC assignment.
func NewStatic(p *prog.Program, kind SliceKind, window uint64) (*Static, error) {
	if window == 0 {
		window = ProfileWindow
	}
	l := newSliceLearner(kind)
	m := emu.New(p)
	for i := uint64(0); i < window && !m.Halted; i++ {
		st, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("steer: static profiling: %w", err)
		}
		l.observe(st.PC, st.Inst)
	}
	return freeze(p, fmt.Sprintf("static-%s", kind), l.has), nil
}

// NewStaticConservative derives the slice purely at compile time, the way
// a compiler without path profiles must: the slice of rdg.BuildStatic's
// flow-insensitive RDG, where every instruction writing register r is a
// potential parent of every instruction reading r. This over-marks the
// slice — any register reused across program contexts drags extra
// instructions into the integer cluster — which is the conservatism that
// handicaps static partitioning in the paper's Figure 3.
func NewStaticConservative(p *prog.Program, kind SliceKind) *Static {
	g := rdg.BuildStatic(p)
	slice := g.LdStSlice()
	if kind == BrSlice {
		slice = g.BrSlice()
	}
	return freeze(p, fmt.Sprintf("static-%s-cons", kind), func(pc int) bool { return slice[pc] })
}

// freeze fixes the assignment of every PC of p's text: slice members to
// the integer cluster, the rest to the FP cluster.
func freeze(p *prog.Program, name string, member func(pc int) bool) *Static {
	assign := make([]core.ClusterID, len(p.Text))
	for pc := range assign {
		assign[pc] = core.FPCluster
		if member(pc) {
			assign[pc] = core.IntCluster
		}
	}
	return &Static{assign: assign, name: name}
}

// Name implements core.Steerer.
func (s *Static) Name() string { return s.name }

// Steer implements core.Steerer. The core steers only PCs of the
// program's text, which the assignment covers.
//
//dca:hotpath
func (s *Static) Steer(info *core.SteerInfo) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	return s.assign[info.PC]
}

// Assignment exposes the frozen cluster of the static instruction at pc
// (for tests).
func (s *Static) Assignment(pc int) core.ClusterID { return s.assign[pc] }
