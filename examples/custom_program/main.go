// Custom program: assemble the paper's running example (Figure 2 — the
// array-divide loop whose register dependence graph the paper uses to
// define LdSt and Br slices), execute it functionally, show how the
// steering hardware learns its slices at run time, and time it on the
// clustered machine.
//
// The program is a variant of examples/testdata/fig2.s, the copy the
// tests and dcardg load: here C[1] = 0, so one iteration takes the
// else-branch, and the loop jumps back to its start instead of halting,
// so the timing run never runs out of instructions.
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/steer"
)

const figure2 = `
; for (i=0;i<N;i++) { if (C[i]!=0) A[i]=B[i]/C[i]; else A[i]=0; }
.data
A: .word 0, 0, 0, 0
B: .word 8, 12, 20, 36
C: .word 2, 0, 5, 6
.text
     addi r9, r0, 32    ; N*8
start:
     addi r1, r0, 0     ; i*8
for: lui  r2, 1
     ori  r2, r2, 32    ; &B
     add  r2, r2, r1
     ld   r3, 0(r2)     ; B[i]
     lui  r4, 1
     ori  r4, r4, 64    ; &C
     add  r4, r4, r1
     ld   r5, 0(r4)     ; C[i]
     beq  r5, r0, l1
     div  r7, r3, r5
     j    l2
l1:  addi r7, r0, 0
l2:  lui  r8, 1         ; &A
     add  r8, r8, r1
     st   r7, 0(r8)
     addi r1, r1, 8
     bne  r1, r9, for
     j    start         ; repeat forever for the timing run
`

func main() {
	p, err := asm.Assemble("figure2", figure2)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Functional execution: verify the loop computes A = B/C.
	m := emu.New(p)
	if _, err := m.Run(200); err != nil {
		log.Fatal(err)
	}
	a := p.Symbols["A"]
	fmt.Print("A after one pass: ")
	for i := 0; i < 4; i++ {
		fmt.Printf("%d ", int64(m.Mem.Read(a+uint64(i*8), 8)))
	}
	fmt.Println("(expected 4 0 4 6)")

	// 2. Slice learning: run the LdSt and Br slice trackers over the
	// decode stream and print each instruction's membership — compare
	// with the shaded nodes of the paper's Figure 2.
	ldst := steer.NewSlice(steer.LdStSlice)
	br := steer.NewSlice(steer.BrSlice)
	trainer := emu.New(p)
	for i := 0; i < 2000; i++ {
		st, err := trainer.Step()
		if err != nil {
			log.Fatal(err)
		}
		info := &core.SteerInfo{PC: st.PC, Inst: st.Inst, Forced: core.AnyCluster}
		ldst.Steer(info)
		br.Steer(info)
	}
	fmt.Println("\nlearned slice membership (cf. paper Figure 2):")
	fmt.Printf("%4s  %-22s %-6s %-6s\n", "pc", "instruction", "LdSt", "Br")
	for pc, in := range p.Text {
		mark := func(b bool) string {
			if b {
				return "  x"
			}
			return ""
		}
		fmt.Printf("%4d  %-22s %-6s %-6s\n", pc, in.String(), mark(ldst.InSlice(pc)), mark(br.InSlice(pc)))
	}

	// 3. Timing: the same program on the clustered machine.
	policy, err := steer.New("ldst-slice", p)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := core.New(config.Clustered(), p, policy)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sim.RunWithWarmup(2_000, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nldst-slice steering on the clustered machine: IPC %.2f, comm/instr %.3f\n",
		r.IPC(), r.CommPerInstr())
}
