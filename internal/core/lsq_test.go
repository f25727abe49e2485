package core

import "testing"

// mkMem builds a DynInst standing in for a memory operation in the LSQ.
func mkMem(seq uint64, store bool, addr uint64, width int) *DynInst {
	d := &DynInst{
		Seq:      seq,
		isLoad:   !store,
		isStore:  store,
		memAddr:  addr,
		memWidth: width,
		destPhys: noPhys,
		state:    stateMemWait,
	}
	if store {
		// Stores carry base (src 0) and data (src 1) operands.
		d.numSrcs = 2
		d.srcPhys = [2]physReg{0, 1}
	}
	return d
}

// storeFiles returns register files where the store-data register (phys 1)
// has the given readiness.
func storeFiles(dataReady bool) []regFile {
	rf := newRegFile(4)
	a, _ := rf.Alloc() // phys 3 (stack order) — irrelevant
	_ = a
	if dataReady {
		rf.SetReady(physReg(1))
	}
	return []regFile{*rf, *newRegFile(4)}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a1   uint64
		w1   int
		a2   uint64
		w2   int
		want bool
	}{
		{0, 8, 0, 8, true},
		{0, 8, 8, 8, false},
		{0, 8, 7, 1, true},
		{4, 4, 0, 4, false},
		{0, 1, 0, 8, true},
		{100, 8, 96, 8, true},
	}
	for _, c := range cases {
		if got := overlap(c.a1, c.w1, c.a2, c.w2); got != c.want {
			t.Errorf("overlap(%d,%d,%d,%d) = %v, want %v", c.a1, c.w1, c.a2, c.w2, got, c.want)
		}
	}
}

func TestLoadBlockedByUnknownStoreAddress(t *testing.T) {
	q := newLSQ(8)
	st := mkMem(1, true, 0x100, 8)
	ld := mkMem(2, false, 0x200, 8)
	q.Add(st)
	q.Add(ld)
	q.MarkAddrKnown(ld)
	files := storeFiles(true)
	if got := q.classify(ld, files); got != loadBlocked {
		t.Fatalf("load with unknown earlier store address classified %v, want blocked", got)
	}
	q.MarkAddrKnown(st)
	if got := q.classify(ld, files); got != loadAccess {
		t.Fatalf("disjoint load classified %v, want access", got)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	q := newLSQ(8)
	st := mkMem(1, true, 0x100, 8)
	ld := mkMem(2, false, 0x100, 8)
	q.Add(st)
	q.Add(ld)
	q.MarkAddrKnown(st)
	q.MarkAddrKnown(ld)
	if got := q.classify(ld, storeFiles(true)); got != loadForward {
		t.Fatalf("matching store with ready data classified %v, want forward", got)
	}
	if got := q.classify(ld, storeFiles(false)); got != loadBlocked {
		t.Fatalf("matching store with pending data classified %v, want blocked", got)
	}
}

func TestYoungestMatchingStoreWins(t *testing.T) {
	q := newLSQ(8)
	st1 := mkMem(1, true, 0x100, 8)
	st2 := mkMem(2, true, 0x100, 8)
	ld := mkMem(3, false, 0x100, 8)
	q.Add(st1)
	q.Add(st2)
	q.Add(ld)
	for _, d := range []*DynInst{st1, st2, ld} {
		q.MarkAddrKnown(d)
	}
	// st2 (youngest earlier) has pending data: the load must block even
	// though st1's data is ready.
	files := storeFiles(false)
	if got := q.classify(ld, files); got != loadBlocked {
		t.Fatalf("classified %v, want blocked on youngest store", got)
	}
}

func TestLaterStoresDoNotAffectLoad(t *testing.T) {
	q := newLSQ(8)
	ld := mkMem(1, false, 0x100, 8)
	st := mkMem(2, true, 0x100, 8) // younger than the load
	q.Add(ld)
	q.Add(st)
	q.MarkAddrKnown(ld)
	if got := q.classify(ld, storeFiles(false)); got != loadAccess {
		t.Fatalf("younger store blocked an older load: %v", got)
	}
}

func TestPartialOverlapForwards(t *testing.T) {
	q := newLSQ(8)
	st := mkMem(1, true, 0x100, 1) // byte store
	ld := mkMem(2, false, 0x100, 8)
	q.Add(st)
	q.Add(ld)
	q.MarkAddrKnown(st)
	q.MarkAddrKnown(ld)
	if got := q.classify(ld, storeFiles(true)); got != loadForward {
		t.Fatalf("byte-store overlap classified %v, want forward", got)
	}
}

func TestReadyLoadsOrderAndFiltering(t *testing.T) {
	q := newLSQ(8)
	ld1 := mkMem(1, false, 0x10, 8)
	ld2 := mkMem(2, false, 0x20, 8)
	ld3 := mkMem(3, false, 0x30, 8)
	q.Add(ld1)
	q.Add(ld2)
	q.Add(ld3)
	q.MarkAddrKnown(ld1)
	q.MarkAddrKnown(ld3)
	ready := q.ReadyLoads(nil)
	if len(ready) != 2 || ready[0] != ld1 || ready[1] != ld3 {
		t.Fatalf("ReadyLoads returned %d entries in wrong order", len(ready))
	}
	ready[0].lsqAccessed = true
	if got := q.ReadyLoads(nil); len(got) != 1 || got[0] != ld3 {
		t.Fatal("accessed load not filtered out")
	}
}

func TestLSQRemoveAndCapacity(t *testing.T) {
	q := newLSQ(2)
	a := mkMem(1, false, 0, 8)
	b := mkMem(2, true, 8, 8)
	q.Add(a)
	q.Add(b)
	if q.Free() != 0 || q.Len() != 2 {
		t.Fatalf("Free=%d Len=%d", q.Free(), q.Len())
	}
	q.Remove(a)
	if q.Free() != 1 || q.Len() != 1 {
		t.Fatalf("after remove: Free=%d Len=%d", q.Free(), q.Len())
	}
	q.Remove(a) // double remove is a no-op
	if q.Len() != 1 {
		t.Fatal("double remove changed the queue")
	}
}

// TestLSQRemoveMidQueue exercises the general shift path: removing a
// non-head entry must preserve the program order of the survivors, across
// a wrapped ring.
func TestLSQRemoveMidQueue(t *testing.T) {
	q := newLSQ(4)
	// Wrap the ring: fill, drain two from the head, refill.
	pre1, pre2 := mkMem(1, false, 0, 8), mkMem(2, false, 8, 8)
	q.Add(pre1)
	q.Add(pre2)
	q.Remove(pre1)
	q.Remove(pre2)
	a := mkMem(3, false, 0x10, 8)
	b := mkMem(4, true, 0x20, 8)
	c := mkMem(5, false, 0x30, 8)
	d := mkMem(6, true, 0x40, 8)
	for _, e := range []*DynInst{a, b, c, d} {
		q.Add(e)
	}
	q.Remove(c) // mid-queue, past the wrap point
	if q.Len() != 3 || q.Free() != 1 {
		t.Fatalf("Len=%d Free=%d after mid-queue remove", q.Len(), q.Free())
	}
	for i, want := range []*DynInst{a, b, d} {
		if q.at(i) != want {
			t.Fatalf("entry %d is Seq %d, want Seq %d", i, q.at(i).Seq, want.Seq)
		}
	}
	q.Remove(d) // tail entry via the shift path
	if q.Len() != 2 || q.at(0) != a || q.at(1) != b {
		t.Fatal("tail remove corrupted order")
	}
	q.Remove(mkMem(99, false, 0x99, 8)) // absent entry is a no-op
	if q.Len() != 2 {
		t.Fatal("absent remove changed the queue")
	}
}

func TestLSQAwaitingCount(t *testing.T) {
	q := newLSQ(8)
	ld1 := mkMem(1, false, 0x10, 8)
	st := mkMem(2, true, 0x40, 8)
	ld2 := mkMem(3, false, 0x20, 8)
	for _, d := range []*DynInst{ld1, st, ld2} {
		q.Add(d)
	}
	if q.Awaiting() != 0 || !q.allBlocked(storeFiles(true)) {
		t.Fatalf("fresh queue: awaiting %d, want 0 and nothing to unblock", q.Awaiting())
	}
	q.MarkAddrKnown(ld1)
	q.MarkAddrKnown(st) // stores never await an access
	q.MarkAddrKnown(ld2)
	if got := len(q.ReadyLoads(nil)); q.Awaiting() != 2 || got != 2 {
		t.Fatalf("awaiting %d, ReadyLoads %d, want 2 and 2", q.Awaiting(), got)
	}
	q.MarkAccessed(ld1)
	if got := q.ReadyLoads(nil); q.Awaiting() != 1 || len(got) != 1 || got[0] != ld2 {
		t.Fatalf("after one access: awaiting %d, ReadyLoads %d", q.Awaiting(), len(got))
	}
}
