package steer

import "repro/internal/core"

// General implements Section 3.8's general balance steering — the paper's
// best scheme (+36% average on SpecInt95). It is the limiting case of the
// priority scheme with the criticality threshold at infinity: no slices are
// tracked at all. Steering rule: every steerable instruction goes to the
// least loaded cluster when there is a strong imbalance or its operands are
// tied between clusters, and to the cluster holding most of its operands
// otherwise. No slice/parent/cluster tables are needed. On N > 2 clusters
// (Params.Clusters) "least loaded" is the argmin over the per-cluster
// workload counters.
type General struct {
	core.NopSteerer
	im *imbalance
}

// NewGeneral returns the general balance steering scheme.
func NewGeneral(p Params) *General {
	return &General{im: newImbalance(p)}
}

// Name implements core.Steerer.
func (s *General) Name() string { return "general" }

// OnCycle implements core.Steerer.
//
//dca:hotpath
func (s *General) OnCycle(cycle uint64, ready []int) {
	s.im.onCycle(ready)
}

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *General) Steer(info *core.SteerInfo) core.ClusterID {
	var c core.ClusterID
	if info.Forced != core.AnyCluster {
		c = info.Forced
	} else {
		c = steerByOperandsAndBalance(info, s.im)
	}
	s.im.onSteer(c)
	return c
}

// Modulo implements the control scheme of Section 3.6/Figure 12. Steering
// rule: steerable instructions visit the clusters round-robin, ignoring
// dependences entirely. It achieves near-perfect balance and pathological
// communication volume, bounding the balance axis of the trade-off.
type Modulo struct {
	core.NopSteerer
	next core.ClusterID
}

// NewModulo returns modulo steering; the cluster count is read from each
// SteerInfo, so one instance works on any machine.
func NewModulo() *Modulo { return &Modulo{} }

// Name implements core.Steerer.
func (s *Modulo) Name() string { return "modulo" }

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *Modulo) Steer(info *core.SteerInfo) core.ClusterID {
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	c := s.next
	s.next = (s.next + 1) % core.ClusterID(info.Clusters())
	return c
}

// FIFOBased names the FIFO-based steering of Palacharla, Jouppi and Smith
// that Section 3.9 compares against. In that design the choice of FIFO is
// the placement, and with it the cluster, so the core's FIFO-mode issue
// queues (config.IQFIFO) place every instruction and never read a
// policy's answer. FIFOBased decides nothing: it answers as
// core.NaiveSteerer does, so off a FIFO-mode machine it steers like naive.
type FIFOBased struct{ core.NaiveSteerer }

// NewFIFOBased returns the FIFO-based steering scheme. Use it with
// config.FIFOClustered (or an N-cluster config in IQFIFO mode).
func NewFIFOBased() *FIFOBased { return &FIFOBased{} }

// Name implements core.Steerer.
func (s *FIFOBased) Name() string { return "fifo" }
