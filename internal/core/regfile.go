package core

import (
	"fmt"
	"math/bits"

	"repro/internal/config"
	"repro/internal/isa"
)

// regFile is one cluster's physical register file: a ready bitset (one bit
// per register, packed 64 to a word so availability tests in the wakeup
// and select loops are single bit operations) and a free list. Values are
// not stored — the functional emulator is the value oracle — only
// availability timing.
type regFile struct {
	ready []uint64
	free  []physReg
	inUse int
}

func newRegFile(n int) *regFile {
	rf := &regFile{ready: make([]uint64, (n+63)/64), free: make([]physReg, 0, n)}
	// Stack the free list so low registers allocate first (deterministic).
	for i := n - 1; i >= 0; i-- {
		rf.free = append(rf.free, physReg(i))
	}
	return rf
}

// FreeCount returns the number of allocatable registers.
//
//dca:hotpath
func (rf *regFile) FreeCount() int { return len(rf.free) }

// Alloc takes a register from the free list, marked not-ready. ok is false
// when the file is exhausted (dispatch must stall).
//
//dca:hotpath
func (rf *regFile) Alloc() (physReg, bool) {
	if len(rf.free) == 0 {
		return noPhys, false
	}
	p := rf.free[len(rf.free)-1]
	rf.free = rf.free[:len(rf.free)-1]
	rf.ready[p>>6] &^= 1 << (uint(p) & 63)
	rf.inUse++
	return p, true
}

// Release returns a register to the free list.
//
//dca:hotpath
func (rf *regFile) Release(p physReg) {
	if p == noPhys {
		return
	}
	rf.free = append(rf.free, p)
	rf.inUse--
}

// SetReady marks a register's value as produced.
//
//dca:hotpath
func (rf *regFile) SetReady(p physReg) {
	if p != noPhys {
		rf.ready[p>>6] |= 1 << (uint(p) & 63)
	}
}

// Ready reports whether the register's value is available.
//
//dca:hotpath
func (rf *regFile) Ready(p physReg) bool {
	if p == noPhys {
		return true
	}
	return rf.ready[p>>6]&(1<<(uint(p)&63)) != 0
}

// mapEntry is one logical register's rename state: a physical register per
// cluster plus the set of clusters holding a valid mapping. A value may be
// mapped in several clusters at once (the paper's register replication,
// created by inter-cluster copies); only the first `clusters` entries are
// meaningful. An invalid entry's physical register is always noPhys, so
// redefine only needs to visit the valid ones, and the set's population
// count is the number of mappings (replication accounting needs no scan).
type mapEntry struct {
	phys  [config.MaxClusters]physReg
	valid ClusterSet
}

// renameTable is the single centralized register map table of Section 2,
// with one mapping field per cluster per logical register. replicated
// caches Figure 15's metric — how many integer logical registers are
// currently mapped in more than one cluster — maintained incrementally at
// the only two mutation points (setMapping, redefine) so the per-cycle
// sample is O(1) instead of a table scan.
type renameTable struct {
	entries    [isa.NumRegs]mapEntry
	clusters   int
	replicated int
}

func newRenameTable(clusters int) *renameTable {
	rt := &renameTable{clusters: clusters}
	for i := range rt.entries {
		rt.entries[i] = mapEntry{phys: noPrevMapping()}
	}
	return rt
}

// initArchState allocates a physical register for every architectural
// register in its home cluster so that initial values (e.g. the stack
// pointer) have producers: integer registers in the int cluster, FP
// registers in the FP cluster (or everything in cluster 0 on a
// single-cluster machine). The allocated registers are marked ready.
func (rt *renameTable) initArchState(files []regFile) error {
	for r := 0; r < isa.NumRegs; r++ {
		reg := isa.Reg(r)
		if reg.IsZero() {
			continue
		}
		home := IntCluster
		if reg.IsFP() && rt.clusters > 1 {
			home = FPCluster
		}
		p, ok := files[home].Alloc()
		if !ok {
			return fmt.Errorf("core: register file %d too small for architectural state", home)
		}
		files[home].SetReady(p)
		rt.entries[r].phys[home] = p
		rt.entries[r].valid = ClusterSet(0).Add(home)
	}
	return nil
}

// lookup returns the mapping of logical register r in cluster c.
//
//dca:hotpath
func (rt *renameTable) lookup(r isa.Reg, c ClusterID) (physReg, bool) {
	e := &rt.entries[r]
	if !e.valid.Has(c) {
		return noPhys, false
	}
	return e.phys[c], true
}

// home returns the set of clusters currently holding a valid mapping of r.
//
//dca:hotpath
func (rt *renameTable) home(r isa.Reg) ClusterSet {
	return rt.entries[r].valid
}

// setMapping records that r's current value lives in physical register p of
// cluster c, in addition to any existing mapping (replication path used by
// copies).
//
//dca:hotpath
func (rt *renameTable) setMapping(r isa.Reg, c ClusterID, p physReg) {
	e := &rt.entries[r]
	if !e.valid.Has(c) {
		e.valid = e.valid.Add(c)
		if e.valid.Count() == 2 && int(r) < isa.NumIntRegs {
			rt.replicated++
		}
	}
	e.phys[c] = p
}

// redefine makes cluster c's physical register p the sole mapping of r,
// invalidating any mapping in every other cluster. It records the previous
// physical register of each cluster that held one in prev and returns the
// bitmask of those clusters, which the writer frees at commit; entries of
// prev outside the mask are left untouched.
//
//dca:hotpath
func (rt *renameTable) redefine(r isa.Reg, c ClusterID, p physReg, prev *[config.MaxClusters]physReg) (mask uint8) {
	e := &rt.entries[r]
	mask = uint8(e.valid)
	for m := mask; m != 0; m &= m - 1 {
		cl := bits.TrailingZeros8(m)
		prev[cl] = e.phys[cl]
		e.phys[cl] = noPhys
	}
	if e.valid.Count() >= 2 && int(r) < isa.NumIntRegs {
		rt.replicated--
	}
	e.phys[c] = p
	e.valid = ClusterSet(0).Add(c)
	return mask
}

// replicatedCount returns how many integer logical registers are currently
// mapped in more than one cluster (Figure 15's metric; on the two-cluster
// machine this is exactly "mapped in both").
//
//dca:hotpath
func (rt *renameTable) replicatedCount() int {
	if rt.clusters < 2 {
		return 0
	}
	return rt.replicated
}
