package rdg

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/workload"
)

// mustFig2 loads the paper's running example (Figure 2); node numbers
// below refer to its instruction indices.
func mustFig2(t *testing.T) *prog.Program {
	t.Helper()
	p, err := asm.AssembleFile("../../examples/testdata/fig2.s")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMemoryNodesAreSplitAndDisconnected(t *testing.T) {
	g := BuildStatic(mustFig2(t))
	ea := NodeID{PC: 5, Kind: KindEA}
	acc := NodeID{PC: 5, Kind: KindAccess}
	if !g.nodes[ea] || !g.nodes[acc] {
		t.Fatal("load not split into EA and access nodes")
	}
	if g.HasEdge(ea, acc) || g.HasEdge(acc, ea) {
		t.Fatal("EA and access nodes must be disconnected (paper §3.1)")
	}
	// The address chain feeds the EA node, not the access node.
	add := NodeID{PC: 4, Kind: KindOp}
	if !g.HasEdge(add, ea) {
		t.Error("address producer not connected to EA node")
	}
	if g.HasEdge(add, acc) {
		t.Error("address producer wrongly connected to access node")
	}
}

func TestLoadValueFlowsFromAccessNode(t *testing.T) {
	g := BuildStatic(mustFig2(t))
	// ld r5 (node 9/access) feeds beq (10) and div (11).
	acc := NodeID{PC: 9, Kind: KindAccess}
	if !g.HasEdge(acc, NodeID{PC: 10, Kind: KindOp}) {
		t.Error("load value not feeding the branch")
	}
	if !g.HasEdge(acc, NodeID{PC: 11, Kind: KindOp}) {
		t.Error("load value not feeding the divide")
	}
}

func TestStoreDataFeedsAccessNode(t *testing.T) {
	g := BuildStatic(mustFig2(t))
	// div r7 (11) and the else-branch addi r7 (13) feed st's access node.
	acc := NodeID{PC: 16, Kind: KindAccess}
	if !g.HasEdge(NodeID{PC: 11, Kind: KindOp}, acc) {
		t.Error("store data (div) not feeding access node")
	}
	if !g.HasEdge(NodeID{PC: 13, Kind: KindOp}, acc) {
		t.Error("store data (else) not feeding access node")
	}
	// The address chain feeds st's EA node.
	if !g.HasEdge(NodeID{PC: 15, Kind: KindOp}, NodeID{PC: 16, Kind: KindEA}) {
		t.Error("store address not feeding EA node")
	}
}

func TestBackwardSliceOfLoopBranch(t *testing.T) {
	// The paper's example: the backward slice of node 18 (bne) contains
	// the loop-control chain {17, 1, 0} and itself — but NOT the divide.
	g, err := BuildDynamic(mustFig2(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	slice := g.BackwardSlice(NodeID{PC: 18, Kind: KindOp})
	for _, pc := range []int{18, 17, 1, 0} {
		found := false
		for n := range slice {
			if n.PC == pc {
				found = true
			}
		}
		if !found {
			t.Errorf("PC %d missing from the bne backward slice", pc)
		}
	}
	for n := range slice {
		if n.PC == 11 {
			t.Error("divide must not be in the loop branch's backward slice")
		}
	}
}

func TestLdStSliceMatchesFigure2(t *testing.T) {
	g, err := BuildDynamic(mustFig2(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	ldst := g.LdStSlice()
	// Address chains (bases, index adds, the r1 chain) are in; the divide
	// and the pure branch-control instruction r9 are not. Note PC 5/9/16
	// are in because their EA nodes define slices.
	for _, pc := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 15, 16, 17} {
		if !ldst[pc] {
			t.Errorf("PC %d should be in the LdSt slice", pc)
		}
	}
	for _, pc := range []int{0, 11, 12, 10, 18} {
		if ldst[pc] {
			t.Errorf("PC %d should NOT be in the LdSt slice", pc)
		}
	}
}

func TestBrSliceMatchesFigure2(t *testing.T) {
	g, err := BuildDynamic(mustFig2(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	br := g.BrSlice()
	// Loop control {0,1,17,18}, the compare {10} and its input load {9}
	// are in; the load's address chain is not (disconnected EA).
	for _, pc := range []int{0, 1, 9, 10, 17, 18} {
		if !br[pc] {
			t.Errorf("PC %d should be in the Br slice", pc)
		}
	}
	for _, pc := range []int{2, 3, 4, 6, 7, 11, 14, 15, 16} {
		if br[pc] {
			t.Errorf("PC %d should NOT be in the Br slice", pc)
		}
	}
}

func TestStaticOverapproximatesDynamic(t *testing.T) {
	p := mustFig2(t)
	static := BuildStatic(p)
	dynamic, err := BuildDynamic(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every dynamic edge must appear in the static graph.
	for from, tos := range dynamic.succ {
		for to := range tos {
			if !static.HasEdge(from, to) {
				t.Errorf("dynamic edge %v->%v missing statically", from, to)
			}
		}
	}
	if static.NumEdges() < dynamic.NumEdges() {
		t.Error("static graph smaller than dynamic")
	}
}

func TestDotOutput(t *testing.T) {
	g := BuildStatic(mustFig2(t))
	dot := g.Dot("fig2")
	for _, want := range []string{"digraph", "->", "fillcolor"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestWorkloadGraphsBuild(t *testing.T) {
	for _, name := range workload.Names() {
		p, err := workload.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildStatic(p)
		if len(g.Nodes()) == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty static RDG", name)
		}
		dg, err := BuildDynamic(p, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		ldst := dg.LdStSlice()
		if len(ldst) == 0 {
			t.Errorf("%s: empty LdSt slice", name)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if (NodeID{PC: 3}).String() != "3" {
		t.Error("op node string wrong")
	}
	if (NodeID{PC: 3, Kind: KindEA}).String() != "3/ea" {
		t.Error("ea node string wrong")
	}
	if KindAccess.String() != "access" || KindOp.String() != "op" {
		t.Error("kind strings wrong")
	}
}
