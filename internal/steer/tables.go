package steer

import "repro/internal/isa"

// SliceKind selects which backward slices a policy tracks: those of memory
// instructions' address computations (the LdSt slice) or those of branches
// (the Br slice).
type SliceKind uint8

const (
	// LdStSlice marks the backward slices of address calculations.
	LdStSlice SliceKind = iota
	// BrSlice marks the backward slices of branches.
	BrSlice
)

// String returns "ldst" or "br".
func (k SliceKind) String() string {
	if k == BrSlice {
		return "br"
	}
	return "ldst"
}

// defines reports whether op starts a slice of this kind.
//
//dca:hotpath
func (k SliceKind) defines(op isa.Opcode) bool {
	if k == BrSlice {
		return op.IsBranch()
	}
	return op.IsMem()
}

// parentTable is the hardware of Section 3.3: for each logical register,
// the PC of the last decoded instruction that wrote it. Slice membership
// propagates backwards through it one producer level per decode.
type parentTable struct {
	pc    [isa.NumRegs]int
	valid [isa.NumRegs]bool
}

// lookup returns the last writer's PC for register r.
//
//dca:hotpath
func (t *parentTable) lookup(r isa.Reg) (int, bool) {
	if !r.Valid() || r.IsZero() {
		return 0, false
	}
	return t.pc[r], t.valid[r]
}

// record notes that the instruction at pc wrote register r.
//
//dca:hotpath
func (t *parentTable) record(r isa.Reg, pc int) {
	if !r.Valid() || r.IsZero() {
		return
	}
	t.pc[r] = pc
	t.valid[r] = true
}

// sliceSources returns the registers through which slice membership
// propagates backwards from an in-slice instruction at decode. The paper's
// RDG splits each memory instruction into two *disconnected* nodes — the
// effective-address calculation and the access — so propagation through a
// memory instruction depends on the slice kind:
//
//   - in the LdSt slice (backward slices of address calculations), a memory
//     instruction propagates only through its address operand: store data
//     and the loaded value's own history are not part of the slice;
//   - in the Br slice, a load reached through its value is the access node,
//     which has no RDG parents — propagation stops there (Figure 2: LD RCi
//     is in the Br slice, its EA is not);
//   - every other instruction propagates through all register sources.
//
//dca:hotpath
func sliceSources(kind SliceKind, in isa.Inst, buf []isa.Reg) []isa.Reg {
	if in.Op.IsMem() {
		if kind == BrSlice {
			return buf
		}
		if in.Rs1 != isa.NoReg && in.Rs1.Valid() && !in.Rs1.IsZero() {
			buf = append(buf, in.Rs1)
		}
		return buf
	}
	return in.Srcs(buf)
}

// sliceLearner is the slice hardware of Sections 3.3 and 3.6: a slice
// table mapping each static instruction to the slice it belongs to,
// identified by the PC of the slice's defining load/store/branch (a PC
// absent from ids is in no slice), plus the parent table. Every
// slice-steering scheme and the profile-based static partitioner learn
// membership through it; internal/rdg holds the formal definition it
// approximates.
type sliceLearner struct {
	kind    SliceKind
	ids     map[int]int // pc -> defining pc
	parents parentTable
	// srcBuf is observe's scratch for an instruction's slice sources (at
	// most two). An array, so a clone's struct copy carries it and no
	// decode allocates.
	srcBuf [2]isa.Reg
}

func newSliceLearner(kind SliceKind) sliceLearner {
	return sliceLearner{kind: kind, ids: make(map[int]int)}
}

// observe updates the slice and parent tables for the instruction decoded
// at pc and returns its slice id, if it has one. A defining instruction
// anchors its own slice; an in-slice instruction marks the last writers of
// its slice sources as members of its slice, so membership creeps up the
// dependence graph one producer level per decode of the consumer.
//
//dca:hotpath
func (l *sliceLearner) observe(pc int, in isa.Inst) (sid int, inSlice bool) {
	if l.kind.defines(in.Op) {
		l.ids[pc] = pc
	}
	sid, inSlice = l.ids[pc]
	if inSlice {
		for _, r := range sliceSources(l.kind, in, l.srcBuf[:0]) {
			if ppc, ok := l.parents.lookup(r); ok {
				l.ids[ppc] = sid
			}
		}
	}
	if d, ok := in.Dst(); ok {
		l.parents.record(d, pc)
	}
	return sid, inSlice
}

// has reports whether the static instruction at pc has been learned as a
// slice member.
func (l *sliceLearner) has(pc int) bool {
	_, ok := l.ids[pc]
	return ok
}
