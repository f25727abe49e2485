// Package rdg implements the register dependence graph formalism of
// Section 3.1 of the paper: a directed graph with a node per instruction
// and an edge for every true register dependence, with memory instructions
// split into two *disconnected* nodes — the effective-address calculation
// and the memory access. Backward slices over this graph define the LdSt
// slice (backward slices of address calculations) and the Br slice
// (backward slices of branches) that the steering schemes of Section 3
// approximate in hardware.
//
// The package builds RDGs two ways: statically over a program's text
// (flow-insensitive, the compiler's view) and dynamically over an
// execution window (exact, the hardware's view). It is the one formal
// definition of the slices: the conservative static partitioner
// (steer.NewStaticConservative) takes its slice from BuildStatic,
// internal/steer's tests check the steering hardware's slice learner
// against BuildDynamic, and cmd/dcardg visualizes both.
package rdg

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// NodeKind distinguishes the two halves of a split memory instruction from
// ordinary nodes.
type NodeKind uint8

const (
	// KindOp is an ordinary computation, branch, or other instruction.
	KindOp NodeKind = iota
	// KindEA is the effective-address half of a load/store.
	KindEA
	// KindAccess is the memory-access half of a load/store.
	KindAccess
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case KindEA:
		return "ea"
	case KindAccess:
		return "access"
	default:
		return "op"
	}
}

// NodeID identifies a node: the static instruction index and which half of
// a split memory instruction it is.
type NodeID struct {
	PC   int
	Kind NodeKind
}

// String renders "12" or "12/ea".
func (n NodeID) String() string {
	if n.Kind == KindOp {
		return fmt.Sprintf("%d", n.PC)
	}
	return fmt.Sprintf("%d/%s", n.PC, n.Kind)
}

// Graph is a register dependence graph. Edges point from producer to
// consumer (program order of the paper's arrows).
type Graph struct {
	prog *prog.Program
	// succ and pred are adjacency sets keyed by node.
	succ map[NodeID]map[NodeID]bool
	pred map[NodeID]map[NodeID]bool
	// nodes records every node ever touched so iteration is complete even
	// for isolated nodes.
	nodes map[NodeID]bool
}

func newGraph(p *prog.Program) *Graph {
	return &Graph{
		prog:  p,
		succ:  make(map[NodeID]map[NodeID]bool),
		pred:  make(map[NodeID]map[NodeID]bool),
		nodes: make(map[NodeID]bool),
	}
}

// nodesFor returns the node(s) an instruction contributes: split pairs for
// memory instructions, a single op node otherwise.
func nodesFor(in isa.Inst, pc int) []NodeID {
	if in.Op.IsMem() {
		return []NodeID{{PC: pc, Kind: KindEA}, {PC: pc, Kind: KindAccess}}
	}
	return []NodeID{{PC: pc, Kind: KindOp}}
}

// consumerNode returns which node of the instruction consumes register r:
// for memory instructions the EA node consumes the base address and the
// access node consumes store data; everything else is the op node.
func consumerNode(in isa.Inst, pc int, r isa.Reg) NodeID {
	if in.Op.IsMem() {
		if r == in.Rs1 {
			return NodeID{PC: pc, Kind: KindEA}
		}
		return NodeID{PC: pc, Kind: KindAccess}
	}
	return NodeID{PC: pc, Kind: KindOp}
}

// producerNode returns the node that produces the instruction's register
// result: the access node for loads, the op node otherwise.
func producerNode(in isa.Inst, pc int) NodeID {
	if in.Op.IsLoad() {
		return NodeID{PC: pc, Kind: KindAccess}
	}
	return NodeID{PC: pc, Kind: KindOp}
}

func (g *Graph) addNode(n NodeID) {
	g.nodes[n] = true
}

func (g *Graph) addEdge(from, to NodeID) {
	if from == to {
		return
	}
	g.addNode(from)
	g.addNode(to)
	if g.succ[from] == nil {
		g.succ[from] = make(map[NodeID]bool)
	}
	if g.pred[to] == nil {
		g.pred[to] = make(map[NodeID]bool)
	}
	g.succ[from][to] = true
	g.pred[to][from] = true
}

// Nodes returns all nodes, sorted for deterministic iteration.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Preds returns the producers feeding node n, sorted.
func (g *Graph) Preds(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.pred[n]))
	for p := range g.pred[n] {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Succs returns the consumers fed by node n, sorted.
func (g *Graph) Succs(n NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.succ[n]))
	for s := range g.succ[n] {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// HasEdge reports whether producer → consumer is in the graph.
func (g *Graph) HasEdge(from, to NodeID) bool { return g.succ[from][to] }

// NumEdges counts edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// BackwardSlice returns the set of nodes from which v is reachable,
// including v (the paper's definition, after Sastry et al.).
func (g *Graph) BackwardSlice(v NodeID) map[NodeID]bool {
	slice := map[NodeID]bool{v: true}
	work := []NodeID{v}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range g.Preds(n) {
			if !slice[p] {
				slice[p] = true
				work = append(work, p)
			}
		}
	}
	return slice
}

// SliceOf unions the backward slices of every defining node of the given
// kind: EA nodes for the LdSt slice, branch nodes for the Br slice. The
// result is keyed by static PC — an instruction belongs to the slice if
// any of its nodes does, matching how the (unsplit) steering hardware
// treats membership.
func (g *Graph) SliceOf(defining func(in isa.Inst, n NodeID) bool) map[int]bool {
	out := make(map[int]bool)
	for _, n := range g.Nodes() {
		if n.PC >= len(g.prog.Text) {
			continue
		}
		if !defining(g.prog.Text[n.PC], n) {
			continue
		}
		for m := range g.BackwardSlice(n) {
			out[m.PC] = true
		}
	}
	return out
}

// LdStSlice returns the PCs in the union of backward slices of all
// effective-address calculations.
func (g *Graph) LdStSlice() map[int]bool {
	return g.SliceOf(func(in isa.Inst, n NodeID) bool {
		return n.Kind == KindEA
	})
}

// BrSlice returns the PCs in the union of backward slices of all branches.
func (g *Graph) BrSlice() map[int]bool {
	return g.SliceOf(func(in isa.Inst, n NodeID) bool {
		return n.Kind == KindOp && in.Op.IsBranch()
	})
}

// Dot renders the graph in Graphviz DOT form, shading the LdSt slice like
// the paper's Figure 2.
func (g *Graph) Dot(name string) string {
	ldst := g.LdStSlice()
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", name)
	for _, n := range g.Nodes() {
		label := n.String()
		if n.PC < len(g.prog.Text) {
			label = fmt.Sprintf("%s: %s", n, g.prog.Text[n.PC])
		}
		shade := ""
		if ldst[n.PC] {
			shade = ", style=filled, fillcolor=gray85"
		}
		fmt.Fprintf(&sb, "  %q [label=%q%s];\n", n.String(), label, shade)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Succs(from) {
			fmt.Fprintf(&sb, "  %q -> %q;\n", from.String(), to.String())
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// BuildStatic constructs the flow-insensitive static RDG: every
// instruction that writes register r is connected to every instruction
// that reads r. This over-approximates the dynamic dependences — it is the
// view a compiler has without path information, and what the conservative
// static partitioner analyzes.
func BuildStatic(p *prog.Program) *Graph {
	g := newGraph(p)
	writers := make(map[isa.Reg][]NodeID)
	for pc, in := range p.Text {
		for _, n := range nodesFor(in, pc) {
			g.addNode(n)
		}
		if d, ok := in.Dst(); ok {
			writers[d] = append(writers[d], producerNode(in, pc))
		}
	}
	for pc, in := range p.Text {
		for _, r := range in.Srcs(nil) {
			to := consumerNode(in, pc, r)
			for _, from := range writers[r] {
				g.addEdge(from, to)
			}
		}
	}
	return g
}

// BuildDynamic constructs the exact RDG observed over the first window
// executed instructions (0 = run to halt, bounded by maxDefault). Each
// static instruction is still one node (two for memory); edges are the
// dependences that actually occurred.
func BuildDynamic(p *prog.Program, window uint64) (*Graph, error) {
	const maxDefault = 1_000_000
	if window == 0 {
		window = maxDefault
	}
	g := newGraph(p)
	last := make(map[isa.Reg]NodeID)
	m := emu.New(p)
	for i := uint64(0); i < window && !m.Halted; i++ {
		st, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("rdg: dynamic build: %w", err)
		}
		in := st.Inst
		for _, n := range nodesFor(in, st.PC) {
			g.addNode(n)
		}
		for _, r := range in.Srcs(nil) {
			if from, ok := last[r]; ok {
				g.addEdge(from, consumerNode(in, st.PC, r))
			}
		}
		if d, ok := in.Dst(); ok {
			last[d] = producerNode(in, st.PC)
		}
	}
	return g, nil
}
