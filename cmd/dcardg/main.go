// Command dcardg builds the register dependence graph (the paper's
// Figure 2 formalism) of a workload or assembly file and prints it as
// Graphviz DOT (LdSt-slice nodes shaded) or as a slice-membership listing.
//
// Usage:
//
//	dcardg -bench compress -dot > compress.dot
//	dcardg -program examples/testdata/fig2.s        # membership listing
//	dcardg -bench go -static                        # compiler's view
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/prog"
	"repro/internal/rdg"
	"repro/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "", "workload name")
		file   = flag.String("program", "", "assembly file instead of a workload")
		dot    = flag.Bool("dot", false, "emit Graphviz DOT instead of a listing")
		static = flag.Bool("static", false, "build the flow-insensitive static RDG")
		window = flag.Uint64("window", 100_000, "dynamic-build instruction window")
	)
	flag.Parse()

	var p *prog.Program
	var err error
	switch {
	case *file != "":
		p, err = asm.AssembleFile(*file)
	case *bench != "":
		p, err = workload.Load(*bench)
	default:
		fmt.Fprintln(os.Stderr, "dcardg: need -bench or -program")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	var g *rdg.Graph
	if *static {
		g = rdg.BuildStatic(p)
	} else {
		if g, err = rdg.BuildDynamic(p, *window); err != nil {
			fatal(err)
		}
	}

	if *dot {
		fmt.Print(g.Dot(p.Name))
		return
	}

	ldst, br := g.LdStSlice(), g.BrSlice()
	fmt.Printf("%s: %d nodes, %d edges (%s RDG)\n\n", p.Name, len(g.Nodes()), g.NumEdges(),
		map[bool]string{true: "static", false: "dynamic"}[*static])
	fmt.Printf("%4s  %-26s %-5s %-5s\n", "pc", "instruction", "LdSt", "Br")
	for pc, in := range p.Text {
		mark := func(b bool) string {
			if b {
				return "  x"
			}
			return ""
		}
		fmt.Printf("%4d  %-26s %-5s %-5s\n", pc, in.String(), mark(ldst[pc]), mark(br[pc]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcardg:", err)
	os.Exit(1)
}
