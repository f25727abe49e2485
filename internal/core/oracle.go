package core

import (
	"errors"

	"repro/internal/config"
	"repro/internal/emu"
)

// Oracle is the functional front end the timing core fetches from: a
// stream of executed (committed-path) instructions. The canonical
// implementation is EmuOracle — a live functional emulator — but anything
// that can serve the same stream qualifies; internal/trace replays a
// recorded stream through this interface so the grid pays for the
// functional execution once (see ARCHITECTURE.md, "Trace layer").
//
// Contract: the stream must be exactly what a fresh emu.Machine over the
// same program would produce — same Seq numbering from zero, same
// branch outcomes, addresses and register values. The timing core is a
// pure consumer; bit-identity of its statistics across oracles follows
// from bit-identity of the stream (locked by FuzzTraceReplay and the
// golden grids).
type Oracle interface {
	// StepInto writes the next executed instruction into st and advances
	// the stream. An error means the stream cannot continue; the machine
	// surfaces it from the run (see ErrOracleExhausted).
	StepInto(st *emu.Step) error
	// PC returns the index of the next instruction to execute, or a
	// negative value when the stream has ended without the program
	// halting (a replayed trace ran out). A negative PC fails the run
	// loudly before any cache or predictor state is touched.
	PC() int
	// Halted reports whether the program has executed its HALT.
	Halted() bool
}

// CloneableOracle is implemented by oracles that can fork their state, so
// a warm-state checkpoint (Machine.Checkpoint) can snapshot the front end
// along with the rest of the machine. EmuOracle and the trace replayer
// are cloneable; a trace recorder deliberately is not — cloning a
// recording stream would interleave two consumers into one buffer — so
// checkpointing a recording machine fails gracefully instead.
type CloneableOracle interface {
	Oracle
	// CloneOracle returns an independent copy: stepping one must not
	// affect the other.
	CloneOracle() Oracle
}

// ResumableOracle is implemented by oracles that can take over another
// oracle's stream where it stands. The trace replayer is resumable: a
// cursor over a longer recording of the same program continues a shorter
// recording's cursor, which lets a machine restored from a warm snapshot
// measure further than the recording it was warmed on reaches (see
// Machine.ResumeOracle).
type ResumableOracle interface {
	Oracle
	// ResumeFrom positions the receiver where prev stands, so that its
	// next step is prev's next step. It reports false, leaving the
	// receiver unchanged, when it cannot continue prev's stream.
	ResumeFrom(prev Oracle) bool
}

// ErrOracleExhausted reports that the oracle stream ended before the run
// did: the program had not halted, yet the oracle had no next
// instruction. It is a sentinel (not constructed per occurrence) so the
// fetch stage can raise it without allocating. A stream of at least
// target + FetchAheadBound(cfg) steps never raises it.
var ErrOracleExhausted = errors.New("core: oracle stream exhausted before the program halted")

// FetchAheadBound returns the most oracle steps a machine under cfg takes
// past its commit target: a run to target committed instructions (Warm,
// Measure, RunWithWarmup) consumes — and peeks at — no more than the first
// target + FetchAheadBound(cfg) steps of its stream.
//
// Every consumed step is committed, in flight or in the fetch queue. The
// loop steps while fewer than target instructions have committed, and one
// cycle commits at most RetireWidth, so at most target-1+RetireWidth are
// committed; at most MaxInFlight are in flight and FetchQueue queued.
// Fetch peeks at the next step (Oracle.PC) only with a queue slot free,
// so a peek needs at most one step past a non-full queue, which the
// FetchQueue term already covers. TestFetchAheadBound checks the bound on
// every golden configuration.
func FetchAheadBound(cfg *config.Config) uint64 {
	return uint64(cfg.MaxInFlight + cfg.FetchQueue + cfg.RetireWidth - 1)
}

// EmuOracle adapts a live functional emulator to the Oracle interface.
// The zero value is unusable; wrap a machine built by emu.New.
type EmuOracle struct {
	M *emu.Machine
}

// StepInto implements Oracle by executing one instruction.
//
//dca:hotpath
func (o EmuOracle) StepInto(st *emu.Step) error { return o.M.StepInto(st) }

// PC implements Oracle.
//
//dca:hotpath
func (o EmuOracle) PC() int { return o.M.PC }

// Halted implements Oracle.
//
//dca:hotpath
func (o EmuOracle) Halted() bool { return o.M.Halted }

// CloneOracle implements CloneableOracle by deep-copying the emulator's
// architectural state (the program is shared, it is immutable).
func (o EmuOracle) CloneOracle() Oracle { return EmuOracle{M: o.M.Clone()} }
