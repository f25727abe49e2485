package trace

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/prog"
)

// Recorder is a recording oracle: a live functional emulator whose
// served stream is simultaneously captured in the trace format. Wire it
// into a timing machine (core.NewWithOracle) and every instruction the
// fetch stage consumes lands in the recording; Extend then appends steps
// past what that machine happened to consume, and Finalize freezes the
// Trace.
//
// A Recorder deliberately does not implement core.CloneableOracle:
// cloning would leave two machines appending to one buffer. A machine
// fetching from a Recorder therefore cannot be checkpointed —
// core.Machine.Checkpoint reports ok=false and callers fall back to an
// unsnapshotted run (see job.Traced).
type Recorder struct {
	m   *emu.Machine
	enc *encoder
	// scratch receives steps during Extend, which records past the
	// consumer's demand and so has no caller-owned Step slot to fill.
	scratch emu.Step
}

// NewRecorder returns a recording oracle over a fresh emulator for p.
// The recording always starts at the program's entry: a trace is a
// from-reset stream (Seq 0, PC at entry), which is what makes it
// shareable across consumers.
func NewRecorder(p *prog.Program) *Recorder {
	return &Recorder{m: emu.New(p), enc: newEncoder(p)}
}

// StepInto implements core.Oracle: execute one instruction, report it,
// and append it to the recording.
func (r *Recorder) StepInto(st *emu.Step) error {
	if err := r.m.StepInto(st); err != nil {
		return err
	}
	// A live emulator cannot produce a stream the encoder rejects — the
	// checks compare the step against the same program semantics the
	// emulator just executed — so an error here is memory corruption.
	if err := r.enc.add(st); err != nil {
		return fmt.Errorf("trace: recorder invariant violated: %w", err)
	}
	return nil
}

// PC implements core.Oracle.
func (r *Recorder) PC() int { return r.m.PC }

// Halted implements core.Oracle.
func (r *Recorder) Halted() bool { return r.m.Halted }

// Steps returns the number of instructions recorded so far.
func (r *Recorder) Steps() uint64 { return r.enc.steps }

// Extend records up to n further instructions (stopping at HALT). The
// timing machine the recording was driven by consumed some
// scheme-dependent number of fetch-ahead instructions; other consumers
// of the trace may run further. A recording of window +
// core.FetchAheadBound(cfg) steps serves every consumer on cfg that runs
// to that window (job.Traced records that far); a consumer that still
// outruns the trace fails loudly with core.ErrOracleExhausted.
func (r *Recorder) Extend(n uint64) error {
	for i := uint64(0); i < n && !r.m.Halted; i++ {
		if err := r.StepInto(&r.scratch); err != nil {
			return err
		}
	}
	return nil
}

// Finalize freezes the recording into a Trace for the given window (the
// committed-instruction budget the recording covers; 0 = recorded to
// HALT). The Recorder must not be stepped afterwards.
func (r *Recorder) Finalize(window uint64) *Trace {
	return r.enc.finish(window)
}
