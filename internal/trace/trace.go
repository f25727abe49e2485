// Package trace is the record-once / replay-many layer for the timing
// core's oracle stream. The stream the core fetches (internal/emu Steps)
// is purely architectural — it depends only on the program and the
// instruction budget, never on the steering scheme or cluster
// configuration — so one recording serves every cell of an evaluation
// grid. The package defines:
//
//   - a compact, versioned, content-addressed binary format for Step
//     streams (Trace, Encode, Decode). Nearly every Step field is
//     derivable from the program text — PC chains through NextPC, Seq
//     counts from zero, taken-branch targets sit in the instruction —
//     so the payload stores only the irreducible remainder,
//     opcode-conditionally: one byte per conditional branch outcome, a
//     zigzag-varint delta per indirect-jump target, memory address and
//     register writeback value. Dense integer workloads encode in a few
//     bytes per instruction instead of sizeof(Step).
//   - a Recorder that wraps a live functional emulator and captures the
//     stream it serves, and a Replayer that serves a recorded stream
//     back. Both satisfy the core.Oracle interface; the replay path is
//     allocation-free (//dca:hotpath) so it stays inside the cycle
//     loop's 0-alloc budget.
//
// Integrity rules (DESIGN.md, "Trace format"): the header carries the
// program digest (prog.Program.Digest), the recording window, the format
// version and a SHA-256 over the whole file. Decode verifies all of them —
// a truncated, corrupted or version-skewed trace fails loudly at decode
// time, and a trace that ends before its consumer is done fails the run
// (core.ErrOracleExhausted) rather than producing a silently short
// measurement.
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// FormatVersion is the current trace format version. Bump it on any
// change to the header layout or the per-step encoding; Decode rejects
// every other version (replaying bytes under the wrong decoder would be
// a silent-corruption engine, exactly what the digest rules forbid).
const FormatVersion = 1

// magic identifies a trace file.
var magic = [5]byte{'D', 'C', 'A', 'T', 'R'}

// Trace is a decoded-in-memory recorded oracle stream: the identity
// fields of the header plus the still-encoded payload (steps are decoded
// lazily, by a Replayer). Meta is the JSON face of the same header for
// tooling (cmd/dcatrace).
type Trace struct {
	// ProgramDigest is the hex SHA-256 identity of the recorded program
	// (prog.Program.Digest); a Replayer refuses any other program.
	ProgramDigest string
	// Entry is the program's entry instruction index (the first PC).
	Entry int
	// Window is the committed-instruction budget the recording was made
	// for (0 = recorded to HALT). Steps may exceed it: the fetch stage
	// runs ahead of commit, by at most core.FetchAheadBound steps.
	Window uint64
	// Steps is the number of instructions in the stream.
	Steps uint64
	// Halted reports whether the stream ends with the program's HALT.
	Halted bool

	payload []byte
}

// Meta is the trace header rendered as plain data, for the JSON output
// of cmd/dcatrace (info, dump, convert).
type Meta struct {
	FormatVersion int    `json:"format_version"`
	Digest        string `json:"digest"`
	ProgramDigest string `json:"program_digest"`
	Entry         int    `json:"entry"`
	Window        uint64 `json:"window"`
	Steps         uint64 `json:"steps"`
	Halted        bool   `json:"halted"`
	PayloadBytes  int    `json:"payload_bytes"`
}

// Meta returns the trace's header as plain data.
func (t *Trace) Meta() Meta {
	return Meta{
		FormatVersion: FormatVersion,
		Digest:        t.Digest(),
		ProgramDigest: t.ProgramDigest,
		Entry:         t.Entry,
		Window:        t.Window,
		Steps:         t.Steps,
		Halted:        t.Halted,
		PayloadBytes:  len(t.payload),
	}
}

// Encode renders the trace in the versioned binary format.
func (t *Trace) Encode() []byte {
	pd, err := hex.DecodeString(t.ProgramDigest)
	if err != nil || len(pd) != sha256.Size {
		// A Trace is only built by this package from a prog.Digest; a
		// malformed digest means memory corruption, not bad input.
		panic(fmt.Sprintf("trace: malformed program digest %q", t.ProgramDigest))
	}
	out := make([]byte, 0, len(magic)+1+2*sha256.Size+len(t.payload)+5*binary.MaxVarintLen64)
	out = append(out, magic[:]...)
	out = append(out, FormatVersion)
	out = append(out, pd...)
	out = binary.AppendUvarint(out, uint64(t.Entry))
	out = binary.AppendUvarint(out, t.Window)
	out = binary.AppendUvarint(out, t.Steps)
	if t.Halted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(t.payload)))
	// The checksum covers everything but itself — header fields included,
	// so a bit flip anywhere in the file fails Decode, not just one in
	// the payload.
	h := sha256.New()
	h.Write(out)
	h.Write(t.payload)
	out = h.Sum(out)
	out = append(out, t.payload...)
	return out
}

// Digest returns the hex SHA-256 of the encoded trace — the content
// address cmd/dcatrace names files by and the identity the smoke tests
// compare. Traces of the same program and window encode identically, so
// the digest doubles as an equality check for the whole stream.
func (t *Trace) Digest() string {
	sum := sha256.Sum256(t.Encode())
	return hex.EncodeToString(sum[:])
}

// Key returns the content address a recording for (program, window) is
// stored under before it exists: the hex SHA-256 of the program digest,
// the window and the format version. job.Traced looks encoded traces up
// by this key; the format version is included so a format bump can never
// resurrect stale bytes.
func Key(programDigest string, window uint64) string {
	h := sha256.New()
	h.Write([]byte("dcatrace\x00"))
	h.Write([]byte(programDigest))
	var n [9]byte
	n[0] = FormatVersion
	binary.LittleEndian.PutUint64(n[1:], window)
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Decode parses and verifies an encoded trace: magic, format version,
// header shape, payload length and the whole-file checksum. Every failure
// is loud — a truncated or bit-flipped file, anywhere, can never decode
// into a shortened or altered stream.
func Decode(raw []byte) (*Trace, error) {
	if len(raw) < len(magic)+1 {
		return nil, fmt.Errorf("trace: truncated header: %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, errors.New("trace: bad magic (not a dcatrace file)")
	}
	if v := raw[len(magic)]; v != FormatVersion {
		return nil, fmt.Errorf("trace: format version %d, this build reads only %d", v, FormatVersion)
	}
	rest := raw[len(magic)+1:]
	if len(rest) < sha256.Size {
		return nil, errors.New("trace: truncated program digest")
	}
	t := &Trace{ProgramDigest: hex.EncodeToString(rest[:sha256.Size])}
	rest = rest[sha256.Size:]

	next := func(field string) (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated header field %s", field)
		}
		rest = rest[n:]
		return v, nil
	}
	entry, err := next("entry")
	if err != nil {
		return nil, err
	}
	t.Entry = int(entry)
	if t.Window, err = next("window"); err != nil {
		return nil, err
	}
	if t.Steps, err = next("steps"); err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, errors.New("trace: truncated halted flag")
	}
	switch rest[0] {
	case 0:
		t.Halted = false
	case 1:
		t.Halted = true
	default:
		return nil, fmt.Errorf("trace: malformed halted flag %d", rest[0])
	}
	rest = rest[1:]
	plen, err := next("payload length")
	if err != nil {
		return nil, err
	}
	headerEnd := len(raw) - len(rest)
	if len(rest) < sha256.Size {
		return nil, errors.New("trace: truncated checksum")
	}
	var wantSum [sha256.Size]byte
	copy(wantSum[:], rest[:sha256.Size])
	rest = rest[sha256.Size:]
	if uint64(len(rest)) != plen {
		return nil, fmt.Errorf("trace: payload is %d bytes, header says %d", len(rest), plen)
	}
	h := sha256.New()
	h.Write(raw[:headerEnd])
	h.Write(rest)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if sum != wantSum {
		return nil, errors.New("trace: checksum mismatch (corrupted trace)")
	}
	t.payload = rest
	return t, nil
}

// zigzag maps a signed delta onto an unsigned varint-friendly value
// (small magnitudes of either sign encode in few bytes).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// writesReg mirrors the functional emulator's write helper: a
// value-producing instruction records a register result exactly when its
// destination is a real, writable register.
func writesReg(rd isa.Reg) bool {
	return rd != isa.NoReg && !rd.IsZero() && rd.Valid()
}

// encoder appends Steps to a payload, tracking the decoder's state so
// only non-derivable fields are stored. add verifies every derivable
// field against the program — a stream that disagrees with the program
// (a mismatched convert input, a buggy producer) is rejected instead of
// encoded into a trace that would replay something else.
type encoder struct {
	p        *prog.Program
	buf      []byte
	steps    uint64
	pc       int // expected PC of the next step
	halted   bool
	prevAddr uint64
	prevVal  int64
}

func newEncoder(p *prog.Program) *encoder {
	return &encoder{p: p, pc: p.Entry}
}

// add appends one step.
func (e *encoder) add(st *emu.Step) error {
	if e.halted {
		return errors.New("trace: step after HALT")
	}
	if st.PC != e.pc {
		return fmt.Errorf("trace: step %d at PC %d, stream context requires %d", st.Seq, st.PC, e.pc)
	}
	if st.Seq != e.steps {
		return fmt.Errorf("trace: step at PC %d carries Seq %d, stream position is %d", st.PC, st.Seq, e.steps)
	}
	if st.PC < 0 || st.PC >= len(e.p.Text) {
		return fmt.Errorf("trace: step PC %d outside program text [0,%d)", st.PC, len(e.p.Text))
	}
	in := e.p.Text[st.PC]
	if st.Inst != in {
		return fmt.Errorf("trace: step %d at PC %d carries %v, program text has %v", st.Seq, st.PC, st.Inst, in)
	}

	op := in.Op
	wantNext := st.PC + 1
	switch {
	case op == isa.HALT:
		e.halted = true
		wantNext = st.PC
	case op.IsCondBranch():
		if st.Taken {
			e.buf = append(e.buf, 1)
			wantNext = int(in.Imm)
		} else {
			e.buf = append(e.buf, 0)
		}
	case op == isa.J || op == isa.JAL:
		wantNext = int(in.Imm)
	case op == isa.JR || op == isa.JALR:
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(st.NextPC)-int64(st.PC+1)))
		wantNext = st.NextPC
	case op.IsLoad():
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(st.MemAddr-e.prevAddr)))
		e.prevAddr = st.MemAddr
		if writesReg(in.Rd) {
			e.buf = binary.AppendUvarint(e.buf, zigzag(st.Value-e.prevVal))
			e.prevVal = st.Value
		}
	case op.IsStore():
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(st.MemAddr-e.prevAddr)))
		e.prevAddr = st.MemAddr
	case op != isa.NOP:
		// Value-producing ALU / FP operation.
		if writesReg(in.Rd) {
			e.buf = binary.AppendUvarint(e.buf, zigzag(st.Value-e.prevVal))
			e.prevVal = st.Value
		}
	}
	if st.NextPC != wantNext {
		return fmt.Errorf("trace: step %d (%v at PC %d) reports NextPC %d, semantics require %d",
			st.Seq, op, st.PC, st.NextPC, wantNext)
	}
	// Cross-check the derivable writeback fields so convert inputs that
	// disagree with the program are rejected rather than re-derived.
	wantWrote := false
	var wantVal int64
	switch {
	case op == isa.JAL || op == isa.JALR:
		wantWrote = writesReg(in.Rd)
		wantVal = int64(st.PC + 1)
	case op.IsLoad() || (!op.IsBranch() && !op.IsStore() && op != isa.NOP && op != isa.HALT):
		wantWrote = writesReg(in.Rd)
		wantVal = st.Value
	}
	if st.WroteReg != wantWrote || (wantWrote && st.Value != wantVal) {
		return fmt.Errorf("trace: step %d (%v at PC %d) writeback (%v,%d) disagrees with program semantics (%v,%d)",
			st.Seq, op, st.PC, st.WroteReg, st.Value, wantWrote, wantVal)
	}

	e.steps++
	e.pc = wantNext
	return nil
}

// finish freezes the accumulated stream into a Trace for the given
// recording window.
func (e *encoder) finish(window uint64) *Trace {
	return &Trace{
		ProgramDigest: e.p.Digest(),
		Entry:         e.p.Entry,
		Window:        window,
		Steps:         e.steps,
		Halted:        e.halted,
		payload:       e.buf,
	}
}

// EncodeSteps builds a trace from an externally captured step stream
// (cmd/dcatrace convert). Every step is verified against p's semantics;
// a stream the program cannot have produced is rejected.
func EncodeSteps(p *prog.Program, window uint64, steps []emu.Step) (*Trace, error) {
	e := newEncoder(p)
	for i := range steps {
		if err := e.add(&steps[i]); err != nil {
			return nil, err
		}
	}
	return e.finish(window), nil
}
