package steer

import (
	"fmt"

	"repro/internal/core"
)

// Slice implements the plain slice-steering schemes of Sections 3.3–3.4.
// Steering rule: every instruction in the tracked slice (LdSt or Br) is
// dispatched to the integer cluster and everything else to the FP cluster
// (complex integer instructions excepted — the datapath forces those to
// the integer cluster). The scheme is an inherently two-way partitioner;
// on an N-cluster machine it still uses only clusters 0 and 1.
//
// Slice membership is learned at run time by the slice learner: memory
// instructions (resp. branches) enter their own slice; an instruction in
// the slice marks its parents via the parent table, so membership creeps
// up the dependence graph one level per execution of the consumer —
// exactly the incremental hardware algorithm of Section 3.3.
type Slice struct {
	core.NopSteerer
	sliceLearner
}

// NewSlice returns LdSt- or Br-slice steering.
func NewSlice(kind SliceKind) *Slice {
	return &Slice{sliceLearner: newSliceLearner(kind)}
}

// Name implements core.Steerer.
func (s *Slice) Name() string { return fmt.Sprintf("%s-slice", s.kind) }

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *Slice) Steer(info *core.SteerInfo) core.ClusterID {
	_, inSlice := s.observe(info.PC, info.Inst)
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	if inSlice {
		return core.IntCluster
	}
	return core.FPCluster
}

// InSlice reports whether the static instruction at pc has been learned as
// a slice member (exported for tests and examples).
func (s *Slice) InSlice(pc int) bool { return s.has(pc) }
