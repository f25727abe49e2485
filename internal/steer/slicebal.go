package steer

import (
	"fmt"

	"repro/internal/core"
)

// sliceState is one slice's entry in the cluster table of Figure 10 (and
// its Section 3.7 extension): the cluster the slice is mapped to, plus the
// criticality bookkeeping used by the priority scheme.
type sliceState struct {
	cluster  core.ClusterID
	assigned bool
	// missCount counts cache misses (LdSt slices) or mispredictions (Br
	// slices) of the slice's defining instruction.
	missCount uint64
}

// SliceBalance implements Section 3.6's slice balance steering:
// instructions are classified into individual backward slices at run time
// (slice table + parent table), each slice is mapped to a cluster (cluster
// table), and a whole slice re-maps to the least loaded cluster when its
// current cluster is strongly overloaded (on two clusters: to the other
// cluster, as in the paper). Non-slice instructions follow the non-slice
// balance rule.
type SliceBalance struct {
	core.NopSteerer
	sliceLearner
	im    *imbalance
	table map[int]*sliceState // slice id (defining pc) -> state
	// Remaps counts whole-slice reassignments (reported by the ablation
	// benches; the priority scheme exists to reduce these).
	Remaps uint64
}

// NewSliceBalance returns the scheme over the given slice kind.
func NewSliceBalance(kind SliceKind, p Params) *SliceBalance {
	return &SliceBalance{
		sliceLearner: newSliceLearner(kind),
		im:           newImbalance(p),
		table:        make(map[int]*sliceState),
	}
}

// Name implements core.Steerer.
func (s *SliceBalance) Name() string { return fmt.Sprintf("%s-slicebal", s.kind) }

// OnCycle implements core.Steerer.
//
//dca:hotpath
func (s *SliceBalance) OnCycle(cycle uint64, ready []int) {
	s.im.onCycle(ready)
}

// state returns (creating if needed) the cluster-table entry for sid. New
// slices start on the integer cluster: their defining instructions are
// loads/stores/branches whose chains favor the memory datapath, and the
// balance machinery migrates them as pressure builds.
//
//dca:hotpath
func (s *SliceBalance) state(sid int) *sliceState {
	st, ok := s.table[sid]
	if !ok {
		st = &sliceState{}
		s.table[sid] = st
	}
	return st
}

// steerSlice places an instruction that belongs to slice sid: to the
// slice's cluster, re-mapping the whole slice to the least loaded cluster
// first when its current cluster is strongly overloaded (on two clusters
// that is exactly the paper's "the other cluster").
//
//dca:hotpath
func (s *SliceBalance) steerSlice(sid int, info *core.SteerInfo) core.ClusterID {
	ready := info.Ready[:min(s.im.n, len(info.Ready))]
	st := s.state(sid)
	if !st.assigned {
		st.cluster = s.im.leastLoaded(s.im.allClusters(), ready)
		st.assigned = true
	} else if s.im.strong() && s.im.overloaded(st.cluster) {
		st.cluster = s.im.leastLoaded(s.im.allClusters(), ready)
		s.Remaps++
	}
	return st.cluster
}

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *SliceBalance) Steer(info *core.SteerInfo) core.ClusterID {
	sid, inSlice := s.observe(info.PC, info.Inst)
	c := s.choose(info, sid, inSlice)
	s.im.onSteer(c)
	return c
}

//dca:hotpath
func (s *SliceBalance) choose(info *core.SteerInfo, sid int, inSlice bool) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	if inSlice {
		return s.steerSlice(sid, info)
	}
	return steerByOperandsAndBalance(info, s.im)
}

// Priority implements Section 3.7: only slices whose defining instruction
// misses in the cache (LdSt) or mispredicts (Br) often enough are kept
// together; everything else steers individually under the non-slice rule.
// The criticality threshold self-tunes every Epoch cycles toward having
// about half of the instructions in critical slices.
type Priority struct {
	*SliceBalance
	epochStart    uint64
	threshold     uint64
	criticalCount uint64
	totalCount    uint64
}

// NewPriority returns the priority slice balance scheme.
func NewPriority(kind SliceKind, p Params) *Priority {
	return &Priority{SliceBalance: NewSliceBalance(kind, p), threshold: 1}
}

// Name implements core.Steerer.
func (s *Priority) Name() string { return fmt.Sprintf("%s-priority", s.kind) }

// OnCycle implements core.Steerer: besides the balance update, it runs the
// 8192-cycle threshold adaptation loop of Section 3.7.
//
//dca:hotpath
func (s *Priority) OnCycle(cycle uint64, ready []int) {
	s.SliceBalance.OnCycle(cycle, ready)
	if cycle-s.epochStart < s.im.p.Epoch {
		return
	}
	s.epochStart = cycle
	if s.totalCount == 0 {
		return
	}
	frac := float64(s.criticalCount) / float64(s.totalCount)
	if frac > s.im.p.CriticalFraction {
		s.threshold++
	} else if s.threshold > 1 {
		s.threshold--
	}
	s.criticalCount, s.totalCount = 0, 0
}

// OnBranchResolved implements core.Steerer: mispredictions raise the
// criticality of Br slices.
//
//dca:hotpath
func (s *Priority) OnBranchResolved(pc int, mispredicted bool) {
	if s.kind == BrSlice && mispredicted {
		s.state(pc).missCount++
	}
}

// OnLoadResolved implements core.Steerer: L1 misses raise the criticality
// of LdSt slices.
//
//dca:hotpath
func (s *Priority) OnLoadResolved(pc int, l1Miss bool) {
	if s.kind == LdStSlice && l1Miss {
		s.state(pc).missCount++
	}
}

// critical reports whether slice sid has crossed the adaptive threshold.
//
//dca:hotpath
func (s *Priority) critical(sid int) bool {
	return s.state(sid).missCount >= s.threshold
}

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *Priority) Steer(info *core.SteerInfo) core.ClusterID {
	sid, inSlice := s.observe(info.PC, info.Inst)
	s.totalCount++
	crit := inSlice && s.critical(sid)
	if crit {
		s.criticalCount++
	}
	var c core.ClusterID
	switch {
	case info.Forced != core.AnyCluster:
		c = info.Forced
	case crit:
		c = s.steerSlice(sid, info)
	default:
		c = steerByOperandsAndBalance(info, s.im)
	}
	s.im.onSteer(c)
	return c
}

// Threshold exposes the current adaptive criticality threshold (for tests
// and diagnostics).
func (s *Priority) Threshold() uint64 { return s.threshold }
