// Package prog defines the executable program image shared by the
// assembler, the workload builders, the functional emulator and the timing
// simulator: a text segment of decoded instructions plus an initialized
// data segment.
package prog

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/isa"
)

// DefaultDataBase is where the data segment is placed unless a program says
// otherwise. It leaves the low addresses free so that null-pointer-style
// bugs in workloads fault loudly.
const DefaultDataBase = 0x10000

// DefaultStackBase is the conventional initial stack pointer for workloads
// that use a stack; the stack grows down from here.
const DefaultStackBase = 0x7F_0000

// Program is a loadable executable: instructions, initialized data and the
// symbol/label metadata needed for diagnostics and for the static
// partitioner.
type Program struct {
	// Name identifies the program in reports.
	Name string
	// Text is the instruction sequence; instruction i has PC i.
	Text []isa.Inst
	// Data is the initialized data image, loaded at DataBase.
	Data []byte
	// DataBase is the load address of Data.
	DataBase uint64
	// Entry is the instruction index where execution starts.
	Entry int
	// Labels maps text labels to instruction indices.
	Labels map[string]int
	// Symbols maps data symbols to absolute addresses.
	Symbols map[string]uint64
}

// Validate checks structural invariants: branch targets in range, register
// fields well formed, entry point in range. Workload builders call this so
// malformed programs fail at construction, not mid-simulation.
func (p *Program) Validate() error {
	if len(p.Text) == 0 {
		return fmt.Errorf("prog %q: empty text segment", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Text) {
		return fmt.Errorf("prog %q: entry %d out of range [0,%d)", p.Name, p.Entry, len(p.Text))
	}
	for i, in := range p.Text {
		if int(in.Op) >= isa.NumOpcodes {
			return fmt.Errorf("prog %q: instruction %d: undefined opcode %d", p.Name, i, in.Op)
		}
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU, isa.J, isa.JAL:
			if in.Imm < 0 || int(in.Imm) >= len(p.Text) {
				return fmt.Errorf("prog %q: instruction %d (%v): target %d out of range", p.Name, i, in, in.Imm)
			}
		}
		for _, r := range []isa.Reg{in.Rd, in.Rs1, in.Rs2} {
			if r != isa.NoReg && !r.Valid() {
				return fmt.Errorf("prog %q: instruction %d (%v): invalid register %d", p.Name, i, in, r)
			}
		}
	}
	return nil
}

// LabelAt returns the label attached to instruction index pc, if any.
// When several labels share the address, the lexicographically first one
// wins, so disassembly output is reproducible.
func (p *Program) LabelAt(pc int) (string, bool) {
	for _, name := range sortedLabelNames(p.Labels) {
		if p.Labels[name] == pc {
			return name, true
		}
	}
	return "", false
}

// Builder constructs a Program incrementally. It offers mnemonic emit
// helpers, forward-referencing labels (patched by Build) and a data-segment
// allocator. Builders are how the workload analogs are written — they play
// the role the Alpha C compiler played in the original study.
type Builder struct {
	name     string
	text     []isa.Inst
	data     []byte
	dataBase uint64
	labels   map[string]int
	symbols  map[string]uint64
	// fixups record instructions whose Imm must be patched to a label's
	// final index.
	fixups []fixup
	errs   []error
}

type fixup struct {
	instIdx int
	label   string
}

// NewBuilder returns an empty builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		dataBase: DefaultDataBase,
		labels:   make(map[string]int),
		symbols:  make(map[string]uint64),
	}
}

// errf records a construction error; Build reports the first one.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("prog %q: %s", b.name, fmt.Sprintf(format, args...)))
}

// PC returns the index the next emitted instruction will have.
func (b *Builder) PC() int { return len(b.text) }

// Label defines a text label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.errf("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.text)
	return b
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) *Builder {
	b.text = append(b.text, in)
	return b
}

// emitTo appends an instruction whose Imm is a label reference.
func (b *Builder) emitTo(in isa.Inst, label string) *Builder {
	b.fixups = append(b.fixups, fixup{instIdx: len(b.text), label: label})
	b.text = append(b.text, in)
	return b
}

// --- Integer ALU helpers ---

// Op3 emits a three-register ALU operation rd = rs1 op rs2.
func (b *Builder) Op3(op isa.Opcode, rd, rs1, rs2 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// OpI emits an immediate ALU operation rd = rs1 op imm.
func (b *Builder) OpI(op isa.Opcode, rd, rs1 isa.Reg, imm int32) *Builder {
	return b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

func (b *Builder) Add(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.ADD, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.SUB, rd, rs1, rs2) }
func (b *Builder) And(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.AND, rd, rs1, rs2) }
func (b *Builder) Or(rd, rs1, rs2 isa.Reg) *Builder         { return b.Op3(isa.OR, rd, rs1, rs2) }
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.XOR, rd, rs1, rs2) }
func (b *Builder) Sll(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.SLL, rd, rs1, rs2) }
func (b *Builder) Srl(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.SRL, rd, rs1, rs2) }
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.SLT, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.MUL, rd, rs1, rs2) }
func (b *Builder) Div(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.DIV, rd, rs1, rs2) }
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg) *Builder        { return b.Op3(isa.REM, rd, rs1, rs2) }
func (b *Builder) Addi(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.ADDI, rd, rs1, imm) }
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.ANDI, rd, rs1, imm) }
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int32) *Builder  { return b.OpI(isa.ORI, rd, rs1, imm) }
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.XORI, rd, rs1, imm) }
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.SLLI, rd, rs1, imm) }
func (b *Builder) Srli(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.SRLI, rd, rs1, imm) }
func (b *Builder) Srai(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.SRAI, rd, rs1, imm) }
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int32) *Builder { return b.OpI(isa.SLTI, rd, rs1, imm) }

// Li loads a 32-bit constant into rd (one or two instructions).
func (b *Builder) Li(rd isa.Reg, v int32) *Builder {
	if v >= -32768 && v < 32768 {
		return b.Addi(rd, isa.R(0), v)
	}
	b.Emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: v >> 16})
	if low := v & 0xFFFF; low != 0 {
		b.Ori(rd, rd, low)
	}
	return b
}

// La loads the absolute address of a data symbol into rd. The symbol must
// already be defined (allocate data before emitting code that refers to it).
func (b *Builder) La(rd isa.Reg, sym string) *Builder {
	addr, ok := b.symbols[sym]
	if !ok {
		b.errf("La: undefined data symbol %q", sym)
		return b
	}
	return b.Li(rd, int32(addr))
}

// Mov copies rs1 into rd.
func (b *Builder) Mov(rd, rs1 isa.Reg) *Builder { return b.Addi(rd, rs1, 0) }

// LiLabel loads the instruction index of a text label into rd (resolved at
// Build time). Programs use it to construct jump tables for indirect
// control flow (jr through a table), as interpreters do.
func (b *Builder) LiLabel(rd isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: isa.R(0)}, label)
}

// --- Memory helpers ---

func (b *Builder) Ld(rd, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.LD, Rd: rd, Rs1: base, Imm: off})
}
func (b *Builder) Lw(rd, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.LW, Rd: rd, Rs1: base, Imm: off})
}
func (b *Builder) Lb(rd, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.LB, Rd: rd, Rs1: base, Imm: off})
}
func (b *Builder) St(val, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.ST, Rs2: val, Rs1: base, Imm: off})
}
func (b *Builder) Sw(val, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.SW, Rs2: val, Rs1: base, Imm: off})
}
func (b *Builder) Sb(val, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.SB, Rs2: val, Rs1: base, Imm: off})
}
func (b *Builder) Fld(fd, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.FLD, Rd: fd, Rs1: base, Imm: off})
}
func (b *Builder) Fst(fs, base isa.Reg, off int32) *Builder {
	return b.Emit(isa.Inst{Op: isa.FST, Rs2: fs, Rs1: base, Imm: off})
}

// --- Control-flow helpers (label-based) ---

func (b *Builder) branch(op isa.Opcode, rs1, rs2 isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, label)
}

func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BEQ, rs1, rs2, label)
}
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BNE, rs1, rs2, label)
}
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BLT, rs1, rs2, label)
}
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BGE, rs1, rs2, label)
}
func (b *Builder) Bltu(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BLTU, rs1, rs2, label)
}
func (b *Builder) Bgeu(rs1, rs2 isa.Reg, label string) *Builder {
	return b.branch(isa.BGEU, rs1, rs2, label)
}
func (b *Builder) Jmp(label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.J}, label)
}
func (b *Builder) Jal(rd isa.Reg, label string) *Builder {
	return b.emitTo(isa.Inst{Op: isa.JAL, Rd: rd}, label)
}
func (b *Builder) Jr(rs1 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.JR, Rs1: rs1})
}
func (b *Builder) Jalr(rd, rs1 isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.JALR, Rd: rd, Rs1: rs1})
}

// --- FP helpers ---

func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) *Builder { return b.Op3(isa.FADD, fd, fs1, fs2) }
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) *Builder { return b.Op3(isa.FSUB, fd, fs1, fs2) }
func (b *Builder) Fmul(fd, fs1, fs2 isa.Reg) *Builder { return b.Op3(isa.FMUL, fd, fs1, fs2) }
func (b *Builder) Fdiv(fd, fs1, fs2 isa.Reg) *Builder { return b.Op3(isa.FDIV, fd, fs1, fs2) }
func (b *Builder) Fneg(fd, fs isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.FNEG, Rd: fd, Rs1: fs})
}
func (b *Builder) Fabs(fd, fs isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.FABS, Rd: fd, Rs1: fs})
}
func (b *Builder) Fmov(fd, fs isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.FMOV, Rd: fd, Rs1: fs})
}
func (b *Builder) Fcvtif(fd, rs isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.FCVTIF, Rd: fd, Rs1: rs})
}
func (b *Builder) Fcvtfi(rd, fs isa.Reg) *Builder {
	return b.Emit(isa.Inst{Op: isa.FCVTFI, Rd: rd, Rs1: fs})
}

// --- Misc ---

func (b *Builder) Nop() *Builder  { return b.Emit(isa.Nop) }
func (b *Builder) Halt() *Builder { return b.Emit(isa.Inst{Op: isa.HALT}) }

// --- Data segment ---

// align pads the data segment to a multiple of n bytes.
func (b *Builder) align(n int) {
	for len(b.data)%n != 0 {
		b.data = append(b.data, 0)
	}
}

// Word64 allocates 8-byte words initialized to the given values under the
// symbol name and returns the symbol's address.
func (b *Builder) Word64(sym string, vals ...int64) uint64 {
	b.align(8)
	addr := b.dataBase + uint64(len(b.data))
	b.defineSym(sym, addr)
	for _, v := range vals {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		b.data = append(b.data, w[:]...)
	}
	return addr
}

// Float64s allocates 8-byte IEEE754 doubles under the symbol name.
func (b *Builder) Float64s(sym string, vals ...float64) uint64 {
	b.align(8)
	addr := b.dataBase + uint64(len(b.data))
	b.defineSym(sym, addr)
	for _, v := range vals {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b.data = append(b.data, w[:]...)
	}
	return addr
}

// Bytes allocates raw bytes under the symbol name.
func (b *Builder) Bytes(sym string, raw []byte) uint64 {
	addr := b.dataBase + uint64(len(b.data))
	b.defineSym(sym, addr)
	b.data = append(b.data, raw...)
	return addr
}

// Space reserves n zeroed bytes (8-byte aligned) under the symbol name.
func (b *Builder) Space(sym string, n int) uint64 {
	b.align(8)
	addr := b.dataBase + uint64(len(b.data))
	b.defineSym(sym, addr)
	b.data = append(b.data, make([]byte, n)...)
	return addr
}

func (b *Builder) defineSym(sym string, addr uint64) {
	if sym == "" {
		return
	}
	if _, dup := b.symbols[sym]; dup {
		b.errf("duplicate data symbol %q", sym)
		return
	}
	b.symbols[sym] = addr
}

// Sym returns the address of a previously defined data symbol.
func (b *Builder) Sym(sym string) (uint64, bool) {
	a, ok := b.symbols[sym]
	return a, ok
}

// Build resolves labels and returns the finished, validated program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("prog %q: undefined label %q", b.name, f.label)
		}
		b.text[f.instIdx].Imm = int32(target)
	}
	p := &Program{
		Name:     b.name,
		Text:     b.text,
		Data:     b.data,
		DataBase: b.dataBase,
		Labels:   b.labels,
		Symbols:  b.symbols,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for statically known-good programs; it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func sortedLabelNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
