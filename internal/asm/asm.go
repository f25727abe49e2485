// Package asm implements a two-pass text assembler for the repository's
// ISA. It exists so workloads and test programs can be written in a compact
// assembly dialect instead of raw [isa.Inst] literals; the HPCA 2000 paper's
// RDG example (Figure 2) ships as the assembly file examples/testdata/fig2.s.
//
// Syntax overview:
//
//	; comment (also #)
//	.data
//	arr:    .word 1, 2, 3        ; 64-bit words
//	pi:     .double 3.1415       ; 64-bit IEEE754
//	buf:    .space 64            ; zeroed bytes, 8-byte aligned
//	.text
//	start:
//	        li   r1, arr         ; li accepts symbols or integers
//	loop:   ld   r2, 0(r1)
//	        addi r1, r1, 8
//	        bne  r2, r0, loop
//	        halt
//
// Branch/jump operands are label names; loads and stores use off(base)
// addressing. Register names are r0–r31 and f0–f31.
package asm

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/prog"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Assemble parses source and produces a program named name.
func Assemble(name, source string) (*prog.Program, error) {
	a := &assembler{
		b:      prog.NewBuilder(name),
		labels: map[string]int{},
	}
	if err := a.run(source); err != nil {
		return nil, err
	}
	return a.finish()
}

// AssembleFile reads and assembles the source file at path, naming the
// program after the file's base name.
func AssembleFile(path string) (*prog.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Assemble(filepath.Base(path), string(src))
}

type pendingInst struct {
	line  int
	inst  isa.Inst
	label string // non-empty when Imm must be patched to a text label
}

type assembler struct {
	b       *prog.Builder
	section string // "text" or "data"
	labels  map[string]int
	insts   []pendingInst
	// pendingDataLabel holds a label seen in .data awaiting its directive.
	pendingDataLabel string
}

func (a *assembler) run(source string) error {
	a.section = "text"
	for i, raw := range strings.Split(source, "\n") {
		line := i + 1
		if err := a.line(line, raw); err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) line(line int, raw string) error {
	// Strip comments.
	if i := strings.IndexAny(raw, ";#"); i >= 0 {
		raw = raw[:i]
	}
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return nil
	}
	// Leading labels ("name:").
	for {
		i := strings.Index(raw, ":")
		if i < 0 || strings.ContainsAny(raw[:i], " \t.,()") {
			break
		}
		label := raw[:i]
		if a.section == "text" {
			if _, dup := a.labels[label]; dup {
				return a.errf(line, "duplicate label %q", label)
			}
			a.labels[label] = len(a.insts)
		} else {
			a.pendingDataLabel = label
		}
		raw = strings.TrimSpace(raw[i+1:])
		if raw == "" {
			return nil
		}
	}
	if strings.HasPrefix(raw, ".") {
		return a.directive(line, raw)
	}
	if a.section != "text" {
		return a.errf(line, "instruction outside .text section: %q", raw)
	}
	return a.instruction(line, raw)
}

func (a *assembler) directive(line int, raw string) error {
	fields := strings.Fields(raw)
	dir := fields[0]
	rest := strings.TrimSpace(strings.TrimPrefix(raw, dir))
	switch dir {
	case ".text":
		a.section = "text"
	case ".data":
		a.section = "data"
	case ".word":
		vals, err := splitInts(rest)
		if err != nil {
			return a.errf(line, ".word: %v", err)
		}
		a.b.Word64(a.takeDataLabel(), vals...)
	case ".double":
		parts := splitList(rest)
		vals := make([]float64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return a.errf(line, ".double: %v", err)
			}
			vals = append(vals, v)
		}
		a.b.Float64s(a.takeDataLabel(), vals...)
	case ".space":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || n < 0 {
			return a.errf(line, ".space: bad size %q", rest)
		}
		a.b.Space(a.takeDataLabel(), n)
	case ".byte":
		vals, err := splitInts(rest)
		if err != nil {
			return a.errf(line, ".byte: %v", err)
		}
		bytesVal := make([]byte, len(vals))
		for i, v := range vals {
			bytesVal[i] = byte(v)
		}
		a.b.Bytes(a.takeDataLabel(), bytesVal)
	default:
		return a.errf(line, "unknown directive %q", dir)
	}
	return nil
}

func (a *assembler) takeDataLabel() string {
	l := a.pendingDataLabel
	a.pendingDataLabel = ""
	return l
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int64, error) {
	parts := splitList(s)
	vals := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(p, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if len(s) < 2 {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		return isa.R(n), nil
	case 'f':
		return isa.F(n), nil
	}
	return isa.NoReg, fmt.Errorf("bad register %q", s)
}

// parseMem parses "off(base)".
func parseMem(s string) (off int32, base isa.Reg, err error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, isa.NoReg, fmt.Errorf("bad memory operand %q", s)
	}
	offStr := strings.TrimSpace(s[:open])
	if offStr == "" {
		offStr = "0"
	}
	o, err := strconv.ParseInt(offStr, 0, 32)
	if err != nil {
		return 0, isa.NoReg, fmt.Errorf("bad offset in %q", s)
	}
	base, err = parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, isa.NoReg, err
	}
	return int32(o), base, nil
}

func (a *assembler) instruction(line int, raw string) error {
	mnemonic := raw
	rest := ""
	if i := strings.IndexAny(raw, " \t"); i >= 0 {
		mnemonic, rest = raw[:i], strings.TrimSpace(raw[i+1:])
	}
	mnemonic = strings.ToLower(mnemonic)
	ops := splitList(rest)

	// Pseudo-instructions first.
	switch mnemonic {
	case "li": // li rd, imm-or-symbol
		if len(ops) != 2 {
			return a.errf(line, "li needs 2 operands")
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return a.errf(line, "%v", err)
		}
		if v, err := strconv.ParseInt(ops[1], 0, 32); err == nil {
			a.emitLi(line, rd, int32(v))
			return nil
		}
		if addr, ok := a.b.Sym(ops[1]); ok {
			a.emitLi(line, rd, int32(addr))
			return nil
		}
		return a.errf(line, "li: bad immediate or unknown symbol %q", ops[1])
	case "mov": // mov rd, rs
		if len(ops) != 2 {
			return a.errf(line, "mov needs 2 operands")
		}
		rd, err1 := parseReg(ops[0])
		rs, err2 := parseReg(ops[1])
		if err1 != nil || err2 != nil {
			return a.errf(line, "mov: bad register")
		}
		a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs}, "")
		return nil
	}

	op, ok := isa.OpcodeByName(mnemonic)
	if !ok {
		return a.errf(line, "unknown mnemonic %q", mnemonic)
	}

	need := func(n int) error {
		if len(ops) != n {
			return a.errf(line, "%s needs %d operands, got %d", mnemonic, n, len(ops))
		}
		return nil
	}
	regOp := func(i int) (isa.Reg, error) {
		r, err := parseReg(ops[i])
		if err != nil {
			return isa.NoReg, a.errf(line, "%s: %v", mnemonic, err)
		}
		return r, nil
	}
	immOp := func(i int) (int32, error) {
		v, err := strconv.ParseInt(ops[i], 0, 32)
		if err != nil {
			return 0, a.errf(line, "%s: bad immediate %q", mnemonic, ops[i])
		}
		return int32(v), nil
	}

	switch {
	case op == isa.NOP || op == isa.HALT:
		if err := need(0); err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op}, "")

	case op == isa.LUI:
		if err := need(2); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		imm, err := immOp(1)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Imm: imm}, "")

	case op == isa.J:
		if err := need(1); err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op}, ops[0])

	case op == isa.JAL:
		if err := need(2); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd}, ops[1])

	case op == isa.JR:
		if err := need(1); err != nil {
			return err
		}
		rs, err := regOp(0)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rs1: rs}, "")

	case op == isa.JALR:
		if err := need(2); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		rs, err := regOp(1)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Rs1: rs}, "")

	case op.IsCondBranch():
		if err := need(3); err != nil {
			return err
		}
		rs1, err := regOp(0)
		if err != nil {
			return err
		}
		rs2, err := regOp(1)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, ops[2])

	case op.IsLoad():
		if err := need(2); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		off, base, err := parseMem(ops[1])
		if err != nil {
			return a.errf(line, "%s: %v", mnemonic, err)
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: off}, "")

	case op.IsStore():
		if err := need(2); err != nil {
			return err
		}
		val, err := regOp(0)
		if err != nil {
			return err
		}
		off, base, err := parseMem(ops[1])
		if err != nil {
			return a.errf(line, "%s: %v", mnemonic, err)
		}
		a.emit(line, isa.Inst{Op: op, Rs2: val, Rs1: base, Imm: off}, "")

	case op == isa.FNEG || op == isa.FABS || op == isa.FMOV ||
		op == isa.FCVTIF || op == isa.FCVTFI:
		if err := need(2); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		rs, err := regOp(1)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Rs1: rs}, "")

	case op.HasImm(): // ALU immediate forms
		if err := need(3); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		rs1, err := regOp(1)
		if err != nil {
			return err
		}
		imm, err := immOp(2)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}, "")

	default: // three-register forms
		if err := need(3); err != nil {
			return err
		}
		rd, err := regOp(0)
		if err != nil {
			return err
		}
		rs1, err := regOp(1)
		if err != nil {
			return err
		}
		rs2, err := regOp(2)
		if err != nil {
			return err
		}
		a.emit(line, isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, "")
	}
	return nil
}

func (a *assembler) emit(line int, in isa.Inst, label string) {
	a.insts = append(a.insts, pendingInst{line: line, inst: in, label: label})
}

// emitLi expands the li pseudo-instruction, keeping label bookkeeping in
// sync with the expansion length.
func (a *assembler) emitLi(line int, rd isa.Reg, v int32) {
	if v >= -32768 && v < 32768 {
		a.emit(line, isa.Inst{Op: isa.ADDI, Rd: rd, Imm: v}, "")
		return
	}
	a.emit(line, isa.Inst{Op: isa.LUI, Rd: rd, Imm: v >> 16}, "")
	if low := v & 0xFFFF; low != 0 {
		a.emit(line, isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd, Imm: low}, "")
	}
}

func (a *assembler) finish() (*prog.Program, error) {
	// Propagate text labels into the builder so the finished program
	// carries them (the static partitioner and disassembler use them).
	byIndex := make(map[int][]string, len(a.labels))
	for name, idx := range a.labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	defineAt := func(idx int) {
		for _, name := range byIndex[idx] {
			a.b.Label(name)
		}
	}
	for i, pi := range a.insts {
		defineAt(i)
		in := pi.inst
		if pi.label != "" {
			target, ok := a.labels[pi.label]
			if !ok {
				return nil, a.errf(pi.line, "undefined label %q", pi.label)
			}
			in.Imm = int32(target)
		}
		a.b.Emit(in)
	}
	defineAt(len(a.insts))
	return a.b.Build()
}
