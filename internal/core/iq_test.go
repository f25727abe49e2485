package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/emu"
	"repro/internal/isa"
)

func ooQueue() *issueQueue {
	return newIssueQueue(config.Clustered().Clusters[0], config.IQOutOfOrder)
}

func fifoQueue() *issueQueue {
	return newIssueQueue(config.Clustered().Clusters[0], config.IQFIFO)
}

// mkInst builds a minimal waiting instruction with the given sources.
func mkInst(seq uint64, dest physReg, srcs ...physReg) *DynInst {
	d := &DynInst{Seq: seq, destPhys: dest, state: stateWaiting}
	for i, s := range srcs {
		d.srcPhys[i] = s
		d.numSrcs++
		_ = i
	}
	return d
}

func TestIQCapacityAccounting(t *testing.T) {
	q := ooQueue()
	if q.Free() != 64 {
		t.Fatalf("fresh queue Free = %d", q.Free())
	}
	d := mkInst(1, noPhys)
	q.Add(d)
	if q.Len() != 1 || q.Free() != 63 {
		t.Fatalf("Len=%d Free=%d", q.Len(), q.Free())
	}
	q.Remove(d)
	if q.Len() != 0 || q.Free() != 64 {
		t.Fatalf("after remove Len=%d Free=%d", q.Len(), q.Free())
	}
}

func TestIQIssuableOldestFirstAndReadiness(t *testing.T) {
	q := ooQueue()
	ready := mkInst(2, noPhys)
	ready.srcReady = [2]bool{true, true}
	notReady := mkInst(1, noPhys, 5)
	q.Add(notReady)
	q.Add(ready)
	got := q.Issuable(nil)
	if len(got) != 1 || got[0] != ready {
		t.Fatalf("Issuable = %v", got)
	}
	if q.ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d", q.ReadyCount())
	}
}

func TestIQWakeUp(t *testing.T) {
	rf := newRegFile(8)
	p, _ := rf.Alloc()
	q := ooQueue()
	d := mkInst(1, noPhys, p)
	q.Add(d)
	if d.IssueReady() {
		t.Fatal("instruction ready before producer")
	}
	if q.ReadyCount() != 0 {
		t.Fatalf("ReadyCount = %d before wake", q.ReadyCount())
	}
	rf.SetReady(p)
	q.wakeReg(p)
	if !d.IssueReady() {
		t.Fatal("wakeReg did not mark source ready")
	}
	if q.ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d after wake", q.ReadyCount())
	}
}

// TestIQWakeRegTwoPendingSources chains one consumer under two producer
// registers and wakes them in both orders; the entry must become ready
// exactly when the second register arrives, counted once.
func TestIQWakeRegTwoPendingSources(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		rf := newRegFile(8)
		p0, _ := rf.Alloc()
		p1, _ := rf.Alloc()
		ps := [2]physReg{p0, p1}
		q := ooQueue()
		d := mkInst(1, noPhys, p0, p1)
		q.Add(d)
		rf.SetReady(ps[order[0]])
		q.wakeReg(ps[order[0]])
		if d.IssueReady() || q.ReadyCount() != 0 {
			t.Fatalf("order %v: ready after one of two sources", order)
		}
		rf.SetReady(ps[order[1]])
		q.wakeReg(ps[order[1]])
		if !d.IssueReady() || q.ReadyCount() != 1 {
			t.Fatalf("order %v: not ready after both sources", order)
		}
	}
}

// TestIQWakeRegSameSourceTwice reads one register through both operands
// (e.g. ADD r1, r5, r5): a single wake must set both flags.
func TestIQWakeRegSameSourceTwice(t *testing.T) {
	rf := newRegFile(8)
	p, _ := rf.Alloc()
	q := ooQueue()
	d := mkInst(1, noPhys, p, p)
	q.Add(d)
	rf.SetReady(p)
	q.wakeReg(p)
	if !d.srcReady[0] || !d.srcReady[1] || !d.IssueReady() {
		t.Fatal("wakeReg did not mark a twice-read source in both operand slots")
	}
	if q.ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d", q.ReadyCount())
	}
}

func TestStoreIssueReadyOnAddressAlone(t *testing.T) {
	d := mkInst(1, noPhys, 3, 4)
	d.isStore = true
	d.srcReady[0] = true // base ready, data pending
	if !d.IssueReady() {
		t.Fatal("store not issue-ready on address operand alone")
	}
	if d.SrcsReady() {
		t.Fatal("SrcsReady must still report the pending data operand")
	}
	ld := mkInst(2, 0, 3, 4)
	ld.srcReady[0] = true
	if ld.IssueReady() {
		t.Fatal("non-store issue-ready with a pending source")
	}
}

// fifoMachine builds a machine on cfg over a program whose first
// instruction reads r1 and r2, and returns it with that instruction as
// fetched. Nothing has dispatched yet, so every FIFO is empty.
func fifoMachine(t *testing.T, cfg *config.Config) (*Machine, *fetched) {
	t.Helper()
	p := mustProg(t, "  add r3, r1, r2\n  halt\n")
	m, err := New(cfg, p, NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	return m, &fetched{step: emu.Step{PC: 0, Inst: p.Text[0]}}
}

// occupy appends a waiting instruction to FIFO f of cluster c. Given a
// destination register, it is that register's pending producer in c, as
// dispatch leaves one; otherwise it produces nothing.
func occupy(t *testing.T, m *Machine, c ClusterID, f int, dst ...isa.Reg) *DynInst {
	t.Helper()
	d := &DynInst{Seq: m.seq, destPhys: noPhys, state: stateWaiting, Cluster: c, fifo: f}
	m.seq++
	for _, r := range dst {
		p, ok := m.files[c].Alloc()
		if !ok {
			t.Fatalf("cluster %d register file exhausted", c)
		}
		d.destPhys, d.destLogical = p, r
		d.prevMask = m.rt.redefine(r, c, p, &d.prevMapping)
	}
	m.iqs[c].Add(d)
	return d
}

// TestFIFOChooseByDependenceChain: an instruction whose pending source is
// produced by a FIFO's tail joins that FIFO, in whichever cluster it is.
// Once the value is ready there is no chain to follow, and it takes an
// empty FIFO instead.
func TestFIFOChooseByDependenceChain(t *testing.T) {
	m, fi := fifoMachine(t, config.FIFOClustered())
	occupy(t, m, 0, 0, isa.R(9)) // a tail the instruction does not read
	producer := occupy(t, m, 1, 3, isa.R(1))
	if c, f := m.fifoSlot(fi, AnyCluster); c != 1 || f != 3 {
		t.Fatalf("consumer placed in cluster %d FIFO %d, want the producer's (1, 3)", c, f)
	}
	m.files[1].SetReady(producer.destPhys)
	if c, f := m.fifoSlot(fi, AnyCluster); c != 0 || f != 1 {
		t.Fatalf("ready-source instruction placed in cluster %d FIFO %d, want an empty FIFO (0, 1)", c, f)
	}
}

// TestFIFOSlotAcrossClusters pins how FIFO mode picks the cluster with
// the FIFO: the cluster with the most empty FIFOs wins, the lowest index
// wins a tie, a chain beats emptiness, and a forced cluster restricts the
// choice even away from the chain.
func TestFIFOSlotAcrossClusters(t *testing.T) {
	m, fi := fifoMachine(t, config.ClusteredNFIFO(4))
	if c, f := m.fifoSlot(fi, AnyCluster); c != 0 || f != 0 {
		t.Fatalf("empty machine: cluster %d FIFO %d, want (0, 0)", c, f)
	}
	occupy(t, m, 0, 0)
	occupy(t, m, 1, 0)
	occupy(t, m, 1, 1)
	occupy(t, m, 3, 2)
	if c, f := m.fifoSlot(fi, AnyCluster); c != 2 || f != 0 {
		t.Fatalf("most empty FIFOs: cluster %d FIFO %d, want (2, 0)", c, f)
	}
	occupy(t, m, 2, 0)
	if c, f := m.fifoSlot(fi, AnyCluster); c != 0 || f != 1 {
		t.Fatalf("three-way tie: cluster %d FIFO %d, want the lowest index (0, 1)", c, f)
	}
	occupy(t, m, 3, 5, isa.R(2))
	if c, f := m.fifoSlot(fi, AnyCluster); c != 3 || f != 5 {
		t.Fatalf("chain in cluster 3: cluster %d FIFO %d, want (3, 5)", c, f)
	}
	if c, f := m.fifoSlot(fi, 1); c != 1 || f != 2 {
		t.Fatalf("forced to cluster 1: cluster %d FIFO %d, want (1, 2)", c, f)
	}
}

func TestFIFOOnlyHeadsIssue(t *testing.T) {
	m, fi := fifoMachine(t, config.FIFOClustered())
	c, f := m.fifoSlot(fi, AnyCluster)
	q := &m.iqs[c]
	head := mkInst(1, 7)
	head.srcReady = [2]bool{true, true}
	head.fifo = f
	q.Add(head)
	second := mkInst(2, 8)
	second.srcReady = [2]bool{true, true}
	second.fifo = f
	q.Add(second)

	got := q.Issuable(nil)
	if len(got) != 1 || got[0] != head {
		t.Fatalf("Issuable in FIFO mode = %d entries (want just the head)", len(got))
	}
	q.Remove(head)
	got = q.Issuable(nil)
	if len(got) != 1 || got[0] != second {
		t.Fatal("second instruction not issuable after head removed")
	}
}

func TestFIFOCopiesBypassFIFOs(t *testing.T) {
	q := fifoQueue()
	cpy := &DynInst{Seq: 1, IsCopy: true, state: stateWaiting, numSrcs: 1, destPhys: 3}
	cpy.srcReady[0] = true
	q.Add(cpy)
	for f := range q.fifos {
		if len(q.fifos[f]) != 0 {
			t.Fatal("copy occupied a FIFO slot")
		}
	}
	got := q.Issuable(nil)
	if len(got) != 1 || got[0] != cpy {
		t.Fatal("copy not issuable from the bus buffer")
	}
	q.Remove(cpy)
	if q.Len() != 0 {
		t.Fatal("copy not removed")
	}
}

// TestFIFOStallsWhenFull: a FIFO at its depth takes nothing more, even
// when its tail produces a pending source, and with no allowed FIFO empty
// fifoSlot answers -1, so dispatch stalls.
func TestFIFOStallsWhenFull(t *testing.T) {
	cfg := config.FIFOClustered()
	for c := range cfg.Clusters {
		cfg.Clusters[c].FIFOs, cfg.Clusters[c].FIFODepth = 2, 1
	}
	m, fi := fifoMachine(t, cfg)
	occupy(t, m, 0, 0, isa.R(1))
	occupy(t, m, 0, 1)
	occupy(t, m, 1, 0)
	if c, f := m.fifoSlot(fi, AnyCluster); c != 1 || f != 1 {
		t.Fatalf("cluster %d FIFO %d, want the last empty one (1, 1)", c, f)
	}
	if _, f := m.fifoSlot(fi, 0); f != -1 {
		t.Fatalf("forced to a full cluster: FIFO %d, want -1", f)
	}
	occupy(t, m, 1, 1)
	if _, f := m.fifoSlot(fi, AnyCluster); f != -1 {
		t.Fatalf("every FIFO full: FIFO %d, want -1", f)
	}
}

func TestSortBySeq(t *testing.T) {
	ds := []*DynInst{{Seq: 3}, {Seq: 1}, {Seq: 2}}
	sortBySeq(ds)
	for i, want := range []uint64{1, 2, 3} {
		if ds[i].Seq != want {
			t.Fatalf("sortBySeq order wrong: %v", []uint64{ds[0].Seq, ds[1].Seq, ds[2].Seq})
		}
	}
}
