package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Sentinel errors of the replay hot path. They are package-level values —
// never constructed per occurrence — so StepInto stays allocation-free
// (the //dca:hotpath noalloc contract).
var (
	// errReplayAfterHalt reports a StepInto call after the stream's HALT
	// was served; a correct consumer checks Halted first, as the fetch
	// stage does.
	errReplayAfterHalt = errors.New("trace: replay stepped past HALT")
	// errTruncatedPayload reports a payload that ended mid-step. Decode's
	// checksum makes this unreachable for traces this package encoded;
	// it guards hand-converted streams.
	errTruncatedPayload = errors.New("trace: payload truncated mid-step")
	// errBadNextPC reports a decoded jump target outside the program.
	errBadNextPC = errors.New("trace: replayed jump target outside program text")
)

// Replayer serves a recorded stream through the core.Oracle interface.
// It decodes the payload incrementally — a few varint reads per step,
// no allocation — reconstructing every Step field the encoder elided
// from the program text: the replay path runs inside the timing core's
// 0-alloc cycle loop (TestSteadyStateCycleAllocs covers a replaying
// machine).
//
// A Replayer is single-consumer; CloneOracle forks an independent cursor
// over the shared immutable payload, which is what lets a warm-state
// checkpoint (core.Checkpoint) snapshot a replaying machine.
type Replayer struct {
	prog *prog.Program
	// digest is the recorded program's identity (Trace.ProgramDigest),
	// which ResumeFrom matches.
	digest  string
	payload []byte
	pos     int
	idx     uint64 // steps served
	n       uint64 // total steps in the stream
	pc      int
	halted  bool
	// Delta-decoder state, mirroring the encoder's.
	prevAddr uint64
	prevVal  int64
}

// NewReplayer returns an oracle serving t's stream. The program must be
// the one the trace was recorded from — identity is checked by digest,
// not trusted from the caller.
func NewReplayer(t *Trace, p *prog.Program) (*Replayer, error) {
	if d := p.Digest(); d != t.ProgramDigest {
		return nil, fmt.Errorf("trace: recorded for program %.12s…, cannot replay against %q (%.12s…)",
			t.ProgramDigest, p.Name, d)
	}
	if t.Entry != p.Entry {
		return nil, fmt.Errorf("trace: entry %d disagrees with program entry %d", t.Entry, p.Entry)
	}
	if t.Entry < 0 || t.Entry >= len(p.Text) {
		return nil, fmt.Errorf("trace: entry %d outside program text [0,%d)", t.Entry, len(p.Text))
	}
	return &Replayer{prog: p, digest: t.ProgramDigest, payload: t.payload, pc: t.Entry, n: t.Steps}, nil
}

// uvarint reads one varint field, reporting failure instead of
// allocating an error (the caller maps it to errTruncatedPayload).
//
//dca:hotpath
func (r *Replayer) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 {
		return 0, false
	}
	r.pos += n
	return v, true
}

// StepInto implements core.Oracle: reconstruct the next recorded step.
// The Step it produces is bit-identical to what the live emulator
// reported at recording time (FuzzTraceReplay and the golden grids lock
// this end to end).
//
//dca:hotpath
func (r *Replayer) StepInto(st *emu.Step) error {
	if r.halted {
		return errReplayAfterHalt
	}
	if r.idx >= r.n {
		return core.ErrOracleExhausted
	}
	pc := r.pc
	in := r.prog.Text[pc]
	*st = emu.Step{}
	st.Seq = r.idx
	st.PC = pc
	st.Inst = in
	next := pc + 1
	op := in.Op
	switch {
	case op == isa.HALT:
		r.halted = true
		next = pc
	case op.IsCondBranch():
		if r.pos >= len(r.payload) {
			return errTruncatedPayload
		}
		taken := r.payload[r.pos]
		r.pos++
		if taken != 0 {
			st.Taken = true
			next = int(in.Imm)
		}
	case op == isa.J:
		st.Taken = true
		next = int(in.Imm)
	case op == isa.JAL:
		st.Taken = true
		next = int(in.Imm)
		if writesReg(in.Rd) {
			st.WroteReg, st.Value = true, int64(pc+1)
		}
	case op == isa.JR || op == isa.JALR:
		st.Taken = true
		d, ok := r.uvarint()
		if !ok {
			return errTruncatedPayload
		}
		next = pc + 1 + int(unzigzag(d))
		if op == isa.JALR && writesReg(in.Rd) {
			st.WroteReg, st.Value = true, int64(pc+1)
		}
	case op.IsLoad():
		d, ok := r.uvarint()
		if !ok {
			return errTruncatedPayload
		}
		r.prevAddr += uint64(unzigzag(d))
		st.MemAddr = r.prevAddr
		if writesReg(in.Rd) {
			v, ok := r.uvarint()
			if !ok {
				return errTruncatedPayload
			}
			r.prevVal += unzigzag(v)
			st.WroteReg, st.Value = true, r.prevVal
		}
	case op.IsStore():
		d, ok := r.uvarint()
		if !ok {
			return errTruncatedPayload
		}
		r.prevAddr += uint64(unzigzag(d))
		st.MemAddr = r.prevAddr
	case op != isa.NOP:
		// Value-producing ALU / FP operation.
		if writesReg(in.Rd) {
			v, ok := r.uvarint()
			if !ok {
				return errTruncatedPayload
			}
			r.prevVal += unzigzag(v)
			st.WroteReg, st.Value = true, r.prevVal
		}
	}
	st.NextPC = next
	if !r.halted {
		if next < 0 || next >= len(r.prog.Text) {
			return errBadNextPC
		}
		r.pc = next
	}
	r.idx++
	return nil
}

// PC implements core.Oracle. A negative value means the stream is
// exhausted without a HALT — the fetch stage fails the run loudly on it
// before touching any cache state.
//
//dca:hotpath
func (r *Replayer) PC() int {
	if !r.halted && r.idx >= r.n {
		return -1
	}
	return r.pc
}

// Halted implements core.Oracle.
//
//dca:hotpath
func (r *Replayer) Halted() bool { return r.halted }

// Steps returns the number of steps served so far.
func (r *Replayer) Steps() uint64 { return r.idx }

// CloneOracle implements core.CloneableOracle: an independent cursor
// over the shared, immutable payload.
func (r *Replayer) CloneOracle() core.Oracle {
	c := *r
	return &c
}

// ResumeFrom implements core.ResumableOracle: it moves the cursor to where
// prev, a cursor over another recording of the same program, stands. The
// encoder is streaming, so a longer recording of a program extends a
// shorter one byte for byte; the bytes prev has consumed must match the
// receiver's and prev's position must lie within the receiver's stream.
// Otherwise it reports false and leaves the receiver unchanged.
func (r *Replayer) ResumeFrom(prev core.Oracle) bool {
	p, ok := prev.(*Replayer)
	if !ok || p.digest != r.digest || p.idx > r.n || p.pos > len(r.payload) ||
		!bytes.Equal(p.payload[:p.pos], r.payload[:p.pos]) {
		return false
	}
	r.pos, r.idx, r.pc, r.halted = p.pos, p.idx, p.pc, p.halted
	r.prevAddr, r.prevVal = p.prevAddr, p.prevVal
	return true
}

// Validate walks t's entire stream against p, verifying that every step
// decodes, every jump target lands in the program, the payload has no
// trailing bytes and the halted flag matches the stream. Decode already
// guarantees byte integrity (checksums); Validate additionally proves
// the bytes are a well-formed stream — cmd/dcatrace runs it on ingest so
// converted traces fail at the door, not mid-grid.
func (t *Trace) Validate(p *prog.Program) error {
	r, err := NewReplayer(t, p)
	if err != nil {
		return err
	}
	var st emu.Step
	for i := uint64(0); i < t.Steps; i++ {
		if err := r.StepInto(&st); err != nil {
			return fmt.Errorf("trace: step %d of %d: %w", i, t.Steps, err)
		}
	}
	if r.pos != len(t.payload) {
		return fmt.Errorf("trace: %d trailing payload bytes after final step", len(t.payload)-r.pos)
	}
	if r.halted != t.Halted {
		return fmt.Errorf("trace: header halted=%v but stream halted=%v", t.Halted, r.halted)
	}
	return nil
}

// DecodeSteps decodes the full stream into Steps (cmd/dcatrace dump and
// convert round-trips; grids replay incrementally instead).
func (t *Trace) DecodeSteps(p *prog.Program) ([]emu.Step, error) {
	r, err := NewReplayer(t, p)
	if err != nil {
		return nil, err
	}
	out := make([]emu.Step, t.Steps)
	for i := range out {
		if err := r.StepInto(&out[i]); err != nil {
			return nil, fmt.Errorf("trace: step %d of %d: %w", i, t.Steps, err)
		}
	}
	if r.pos != len(t.payload) {
		return nil, fmt.Errorf("trace: %d trailing payload bytes after final step", len(t.payload)-r.pos)
	}
	return out, nil
}
