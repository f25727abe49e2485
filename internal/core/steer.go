package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// SteerInfo is the decode-time information the steering logic sees for one
// instruction, mirroring the hardware of Section 3: the instruction, its
// operands' current cluster locations (from the replicated map table), and
// the per-cluster workload measure used by the balance heuristics. The
// per-cluster array is sized for config.MaxClusters; only the first
// NumClusters entries are meaningful.
type SteerInfo struct {
	// Cycle is the current cycle.
	Cycle uint64
	// PC identifies the static instruction (the slice tables index on it).
	PC int
	// Inst is the decoded instruction.
	Inst isa.Inst
	// Forced is the placement constraint from the datapath (on the paper's
	// asymmetric machine: complex integer ops must run in the int cluster,
	// FP ops in the FP cluster); AnyCluster when the policy is free to
	// choose.
	Forced ClusterID
	// NumClusters is the machine's cluster count.
	NumClusters int

	// NumSrcs and SrcReg list the architectural register sources.
	NumSrcs int
	SrcReg  [2]isa.Reg
	// SrcIn reports, per source, the set of clusters currently holding a
	// valid mapping of the operand (more than one bit set = replicated
	// value).
	SrcIn [2]ClusterSet

	// Ready is the per-cluster count of ready waiting instructions this
	// cycle (metric I2's raw input). The machine writes it once per cycle,
	// when it samples the counts for OnCycle.
	Ready [config.MaxClusters]int
}

// Clusters returns the machine's cluster count, defaulting to the paper's
// two when the field was left unset (hand-built SteerInfos in tests).
//
//dca:hotpath
func (si *SteerInfo) Clusters() int {
	if si.NumClusters < 1 {
		return 2
	}
	return si.NumClusters
}

// Steerer is a dynamic cluster-assignment policy. The core calls Steer for
// every program instruction in decode order (copies excluded), even when
// the placement is forced, so policies can maintain their slice and parent
// tables; the returned cluster is overridden by Forced constraints.
type Steerer interface {
	// Name identifies the policy in reports.
	Name() string
	// Steer chooses a cluster for the instruction described by info. The
	// SteerInfo is reused across calls (the hot loop allocates nothing
	// per instruction); implementations must not retain it.
	Steer(info *SteerInfo) ClusterID
	// OnCycle is called once per simulated cycle with the per-cluster
	// ready counts (index = cluster), before any Steer call of that cycle
	// (input to the balance metrics). The slice is reused across cycles;
	// implementations must not retain it.
	OnCycle(cycle uint64, ready []int)
	// OnBranchResolved reports a resolved control transfer and whether it
	// mispredicted (input to the priority scheme's criticality counters).
	OnBranchResolved(pc int, mispredicted bool)
	// OnLoadResolved reports a load's cache outcome (true = L1 miss).
	OnLoadResolved(pc int, l1Miss bool)
}

// CloneableSteerer is a Steerer that can snapshot its mutable state.
// Machine.Checkpoint requires it: a warm-state checkpoint must own a
// private copy of the steering tables and balance counters so replaying a
// measurement run cannot disturb the frozen warm state. A policy that
// does not implement it is simply not checkpointable (the runner falls
// back to simulating the warm-up each time).
//
// NopSteerer deliberately does not implement the interface: a promoted
// no-op CloneSteerer on a stateful policy would silently share state.
type CloneableSteerer interface {
	Steerer
	// CloneSteerer returns a deep copy sharing no mutable state with the
	// receiver. Immutable policies may return the receiver itself.
	CloneSteerer() Steerer
}

// NopSteerer provides no-op hook implementations for policies that do not
// need them; embed it and override Steer.
type NopSteerer struct{}

// OnCycle implements Steerer.
func (NopSteerer) OnCycle(uint64, []int) {}

// OnBranchResolved implements Steerer.
func (NopSteerer) OnBranchResolved(int, bool) {}

// OnLoadResolved implements Steerer.
func (NopSteerer) OnLoadResolved(int, bool) {}

// NaiveSteerer is the conventional partitioning the base machine uses:
// every steerable instruction goes to the integer cluster; only
// FP-constrained instructions end up in the FP cluster.
type NaiveSteerer struct{ NopSteerer }

// Name implements Steerer.
func (NaiveSteerer) Name() string { return "naive" }

// Steer implements Steerer.
//
//dca:hotpath
func (NaiveSteerer) Steer(info *SteerInfo) ClusterID {
	if info.Forced != AnyCluster {
		return info.Forced
	}
	return IntCluster
}

// CloneSteerer implements CloneableSteerer (NaiveSteerer is stateless).
func (s NaiveSteerer) CloneSteerer() Steerer { return s }
