package steer

import (
	"fmt"

	"repro/internal/core"
)

// NonSliceBalance implements Section 3.5's non-slice balance steering:
// slice instructions steer to the integer cluster as in the plain slice
// schemes, while non-slice instructions are used to repair workload
// balance — they go to the least loaded cluster when the imbalance
// counters signal a strong imbalance, and to the cluster holding their
// operands otherwise. On N > 2 clusters (Params.Clusters) "least loaded"
// is the argmin over the per-cluster workload counters.
type NonSliceBalance struct {
	core.NopSteerer
	sliceLearner
	im *imbalance
}

// NewNonSliceBalance returns the scheme over the given slice kind with the
// paper's balance constants.
func NewNonSliceBalance(kind SliceKind, p Params) *NonSliceBalance {
	return &NonSliceBalance{sliceLearner: newSliceLearner(kind), im: newImbalance(p)}
}

// Name implements core.Steerer.
func (s *NonSliceBalance) Name() string {
	return fmt.Sprintf("%s-nonslice", s.kind)
}

// OnCycle implements core.Steerer.
//
//dca:hotpath
func (s *NonSliceBalance) OnCycle(cycle uint64, ready []int) {
	s.im.onCycle(ready)
}

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *NonSliceBalance) Steer(info *core.SteerInfo) core.ClusterID {
	_, inSlice := s.observe(info.PC, info.Inst)
	c := s.choose(info, inSlice)
	s.im.onSteer(c)
	return c
}

//dca:hotpath
func (s *NonSliceBalance) choose(info *core.SteerInfo, inSlice bool) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	if inSlice {
		return core.IntCluster
	}
	return steerByOperandsAndBalance(info, s.im)
}

// steerByOperandsAndBalance is the shared non-slice placement rule: under
// strong imbalance go to the least loaded cluster; otherwise follow the
// operands (the cluster holding most of them), breaking ties among the
// operand-richest clusters toward the least loaded one.
//
//dca:hotpath
func steerByOperandsAndBalance(info *core.SteerInfo, im *imbalance) core.ClusterID {
	ready := info.Ready[:min(im.n, len(info.Ready))]
	if im.strong() {
		return im.leastLoaded(im.allClusters(), ready)
	}
	// Clusters holding the operand majority; with no operands (or a full
	// tie) every cluster is a candidate and load decides, as in the
	// paper's two-cluster rule.
	cands := operandMajority(info, im.allClusters())
	if c := cands.Single(); c != core.AnyCluster {
		return c
	}
	return im.leastLoaded(cands, ready)
}

// operandMajority returns the clusters of all holding the most of the
// instruction's sources, read off the two source-location bitsets: the
// clusters holding every source, else those holding any, else (no source
// mapped in all, or no sources) all of them. That is exactly the set of
// clusters maximizing the per-cluster operand count.
//
//dca:hotpath
func operandMajority(info *core.SteerInfo, all core.ClusterSet) core.ClusterSet {
	inter, union := all, core.ClusterSet(0)
	for i := 0; i < info.NumSrcs; i++ {
		inter &= info.SrcIn[i]
		union |= info.SrcIn[i]
	}
	if inter != 0 {
		return inter
	}
	if union &= all; union != 0 {
		return union
	}
	return all
}
