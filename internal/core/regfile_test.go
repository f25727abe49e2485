package core

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/isa"
)

func TestRegFileAllocRelease(t *testing.T) {
	rf := newRegFile(4)
	if rf.FreeCount() != 4 {
		t.Fatalf("FreeCount = %d", rf.FreeCount())
	}
	var regs []physReg
	for i := 0; i < 4; i++ {
		p, ok := rf.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if rf.Ready(p) {
			t.Error("fresh register must not be ready")
		}
		regs = append(regs, p)
	}
	if _, ok := rf.Alloc(); ok {
		t.Fatal("alloc succeeded on empty free list")
	}
	rf.Release(regs[0])
	if rf.FreeCount() != 1 {
		t.Fatalf("FreeCount after release = %d", rf.FreeCount())
	}
	p, ok := rf.Alloc()
	if !ok || p != regs[0] {
		t.Fatalf("re-alloc = %v,%v", p, ok)
	}
}

func TestRegFileReadyBit(t *testing.T) {
	rf := newRegFile(2)
	p, _ := rf.Alloc()
	rf.SetReady(p)
	if !rf.Ready(p) {
		t.Fatal("SetReady not visible")
	}
	if !rf.Ready(noPhys) {
		t.Fatal("noPhys must always read ready")
	}
	rf.Release(noPhys) // must not panic or change state
	if rf.FreeCount() != 1 {
		t.Fatal("Release(noPhys) changed the free list")
	}
}

// Property: alloc/release sequences never lose or duplicate registers.
func TestRegFileConservation(t *testing.T) {
	f := func(ops []bool) bool {
		rf := newRegFile(8)
		var held []physReg
		for _, alloc := range ops {
			if alloc {
				if p, ok := rf.Alloc(); ok {
					held = append(held, p)
				}
			} else if len(held) > 0 {
				rf.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		return rf.FreeCount()+len(held) == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRenameTableInitArchState(t *testing.T) {
	rt := newRenameTable(2)
	files := []regFile{*newRegFile(96), *newRegFile(96)}
	if err := rt.initArchState(files); err != nil {
		t.Fatal(err)
	}
	// r0 is never mapped; r1..r31 in the int cluster; f0..f31 in FP.
	if _, ok := rt.lookup(isa.R(0), IntCluster); ok {
		t.Error("zero register mapped")
	}
	for i := 1; i < isa.NumIntRegs; i++ {
		if _, ok := rt.lookup(isa.R(i), IntCluster); !ok {
			t.Errorf("r%d not mapped in int cluster", i)
		}
		if _, ok := rt.lookup(isa.R(i), FPCluster); ok {
			t.Errorf("r%d mapped in FP cluster at init", i)
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		if _, ok := rt.lookup(isa.F(i), FPCluster); !ok {
			t.Errorf("f%d not mapped in FP cluster", i)
		}
	}
	// 31 int + 32 FP allocations.
	if files[0].FreeCount() != 96-31 {
		t.Errorf("int file free = %d", files[0].FreeCount())
	}
	if files[1].FreeCount() != 96-32 {
		t.Errorf("fp file free = %d", files[1].FreeCount())
	}
	if rt.replicatedCount() != 0 {
		t.Errorf("replicated at init = %d", rt.replicatedCount())
	}
}

func TestRenameRedefineInvalidatesOtherCluster(t *testing.T) {
	rt := newRenameTable(2)
	files := []regFile{*newRegFile(96), *newRegFile(96)}
	if err := rt.initArchState(files); err != nil {
		t.Fatal(err)
	}
	r := isa.R(5)
	orig, _ := rt.lookup(r, IntCluster)

	// Replicate r5 into the FP cluster (copy path).
	p2, _ := files[1].Alloc()
	rt.setMapping(r, FPCluster, p2)
	if rt.replicatedCount() != 1 {
		t.Fatalf("replicated = %d, want 1", rt.replicatedCount())
	}
	if home := rt.home(r); !home.Has(IntCluster) || !home.Has(FPCluster) {
		t.Fatal("home should report both clusters")
	}

	// A new writer in the int cluster invalidates both old mappings.
	p3, _ := files[0].Alloc()
	var prev [config.MaxClusters]physReg
	mask := rt.redefine(r, IntCluster, p3, &prev)
	if prev[0] != orig || prev[1] != p2 {
		t.Fatalf("redefine prev = %v, want [%v %v]", prev, orig, p2)
	}
	if mask != 0b11 {
		t.Fatalf("redefine mask = %#b, want 0b11", mask)
	}
	if got, ok := rt.lookup(r, IntCluster); !ok || got != p3 {
		t.Fatalf("lookup after redefine = %v,%v", got, ok)
	}
	if _, ok := rt.lookup(r, FPCluster); ok {
		t.Fatal("FP mapping survived redefine")
	}
	if rt.replicatedCount() != 0 {
		t.Fatal("replication count wrong after redefine")
	}
}

func TestRenameSingleClusterNeverReplicates(t *testing.T) {
	rt := newRenameTable(1)
	files := []regFile{*newRegFile(192)}
	if err := rt.initArchState(files); err != nil {
		t.Fatal(err)
	}
	if rt.replicatedCount() != 0 {
		t.Fatal("single cluster reports replication")
	}
	if _, ok := rt.lookup(isa.F(3), IntCluster); !ok {
		t.Fatal("FP register not mapped in cluster 0 on single-cluster machine")
	}
}

func TestInitArchStateFailsOnTinyFile(t *testing.T) {
	rt := newRenameTable(2)
	files := []regFile{*newRegFile(8), *newRegFile(96)}
	if err := rt.initArchState(files); err == nil {
		t.Fatal("expected failure with 8-register file")
	}
}
