package steer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// Slice implements the plain slice-steering schemes of Sections 3.3–3.4.
// Steering rule: every instruction in the tracked slice (LdSt or Br) is
// dispatched to the integer cluster and everything else to the FP cluster
// (complex integer instructions excepted — the datapath forces those to
// the integer cluster). The scheme is an inherently two-way partitioner;
// on an N-cluster machine it still uses only clusters 0 and 1.
//
// Slice membership is learned at run time: memory instructions (resp.
// branches) set their own slice bit; an instruction whose bit is set marks
// its parents' bits via the parent table, so membership creeps up the
// dependence graph one level per execution of the consumer — exactly the
// incremental hardware algorithm of Section 3.3.
type Slice struct {
	core.NopSteerer
	kind    SliceKind
	bits    *sliceBitTable
	parents parentTable
	// srcBuf is observe's scratch for an instruction's slice sources (at
	// most two). An array, so a clone's struct copy carries it and no
	// decode allocates.
	srcBuf [2]isa.Reg
}

// NewSlice returns LdSt- or Br-slice steering.
func NewSlice(kind SliceKind) *Slice {
	return &Slice{kind: kind, bits: newSliceBitTable()}
}

// Name implements core.Steerer.
func (s *Slice) Name() string { return fmt.Sprintf("%s-slice", s.kind) }

// observe updates the slice and parent tables for a decoded instruction
// and reports whether it belongs to the tracked slice.
//
//dca:hotpath
func (s *Slice) observe(info *core.SteerInfo) bool {
	in := info.Inst
	pc := info.PC
	if s.kind.defines(in.Op) {
		s.bits.set(pc)
	}
	inSlice := s.bits.get(pc)
	if inSlice {
		for _, r := range sliceSources(s.kind, in, s.srcBuf[:0]) {
			if ppc, ok := s.parents.lookup(r); ok {
				s.bits.set(ppc)
			}
		}
	}
	if d, ok := in.Dst(); ok {
		s.parents.record(d, pc)
	}
	return inSlice
}

// Steer implements core.Steerer.
//
//dca:hotpath
func (s *Slice) Steer(info *core.SteerInfo) core.ClusterID {
	inSlice := s.observe(info)
	if info.Forced != core.AnyCluster {
		return info.Forced
	}
	if inSlice {
		return core.IntCluster
	}
	return core.FPCluster
}

// InSlice reports whether the static instruction at pc has been learned as
// a slice member (exported for tests and the static partitioner).
//
//dca:hotpath
func (s *Slice) InSlice(pc int) bool { return s.bits.get(pc) }
