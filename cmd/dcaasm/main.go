// Command dcaasm assembles a program in the repository's assembly dialect
// and either disassembles it back (default), writes its encoded text
// segment, or executes it on the functional emulator.
//
// Usage:
//
//	dcaasm prog.s                # assemble + disassemble listing
//	dcaasm -run prog.s           # assemble and execute functionally
//	dcaasm -o prog.bin prog.s    # emit the encoded text segment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

func main() {
	var (
		run = flag.Bool("run", false, "execute the program on the functional emulator")
		max = flag.Uint64("max", 10_000_000, "instruction limit for -run")
		out = flag.String("o", "", "write the encoded text segment to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dcaasm [-run] [-o out.bin] prog.s")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	p, err := asm.Assemble(filepath.Base(path), string(src))
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := os.WriteFile(*out, isa.EncodeText(p.Text), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d instructions (%d bytes) to %s\n",
			len(p.Text), len(p.Text)*isa.Word, *out)
		return
	}

	if *run {
		m := emu.New(p)
		n, err := m.Run(*max)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed %d instructions (halted: %v)\n", n, m.Halted)
		for i := 0; i < 8; i++ {
			fmt.Printf("r%-2d = %-12d", i, m.IntReg(i))
			if i%4 == 3 {
				fmt.Println()
			}
		}
		return
	}

	for pc, in := range p.Text {
		if lbl, ok := p.LabelAt(pc); ok {
			fmt.Printf("%s:\n", lbl)
		}
		fmt.Printf("%4d  %s\n", pc, in)
	}
	if len(p.Data) > 0 {
		fmt.Printf("; data: %d bytes at %#x\n", len(p.Data), p.DataBase)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcaasm:", err)
	os.Exit(1)
}
