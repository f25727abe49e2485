// Tests for the trace layer: bit-exact round trips against the live
// functional emulator, byte-stable re-encoding, loud failure on every
// kind of trace corruption, and — the property the whole layer exists
// for — a replaying timing machine producing statistics identical to a
// live one.
package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/prog"
	"repro/internal/rdg"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/trace"
)

// stepBudget bounds every to-halt loop in this file; rdg programs halt
// well under it, so hitting the bound is a test bug.
const stepBudget = 5_000_000

// liveSteps runs p on a fresh functional emulator to HALT and returns
// the full step stream — the reference every trace is compared against.
func liveSteps(t *testing.T, p *prog.Program) []emu.Step {
	t.Helper()
	m := emu.New(p)
	var steps []emu.Step
	for i := 0; i < stepBudget && !m.Halted; i++ {
		var st emu.Step
		if err := m.StepInto(&st); err != nil {
			t.Fatalf("emulator step %d: %v", i, err)
		}
		steps = append(steps, st)
	}
	if !m.Halted {
		t.Fatalf("program %q did not halt within %d steps", p.Name, stepBudget)
	}
	return steps
}

// recordToHalt drives a Recorder to HALT and freezes the trace.
func recordToHalt(t *testing.T, p *prog.Program) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(p)
	var st emu.Step
	for i := 0; i < stepBudget && !rec.Halted(); i++ {
		if err := rec.StepInto(&st); err != nil {
			t.Fatalf("recorder step %d: %v", i, err)
		}
	}
	if !rec.Halted() {
		t.Fatalf("program %q did not halt within %d steps", p.Name, stepBudget)
	}
	return rec.Finalize(0)
}

// runDigest is the stats identity used across this file: the JSON
// encoding of the full run record (the same canonicalization
// job.ResultDigest hashes).
func runDigest(t *testing.T, r *stats.Run) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRoundTripMatchesLiveEmulator(t *testing.T) {
	for _, seed := range []int64{1, 7, 9, 23} {
		p := rdg.RandomProgram(seed)
		want := liveSteps(t, p)
		tr := recordToHalt(t, p)
		if tr.Steps != uint64(len(want)) {
			t.Fatalf("seed %d: recorded %d steps, live emulator executed %d", seed, tr.Steps, len(want))
		}
		if !tr.Halted {
			t.Fatalf("seed %d: trace not marked halted", seed)
		}
		got, err := tr.DecodeSteps(p)
		if err != nil {
			t.Fatalf("seed %d: decode steps: %v", seed, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: step %d differs:\n replay: %+v\n   live: %+v", seed, i, got[i], want[i])
			}
		}
		if err := tr.Validate(p); err != nil {
			t.Fatalf("seed %d: validate: %v", seed, err)
		}
	}
}

func TestEncodeDecodeEncodeByteStable(t *testing.T) {
	p := rdg.RandomProgram(7)
	tr := recordToHalt(t, p)
	enc := tr.Encode()
	tr2, err := trace.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	enc2 := tr2.Encode()
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode→decode→encode not byte-stable: %d vs %d bytes", len(enc), len(enc2))
	}
	if tr.Digest() != tr2.Digest() {
		t.Fatalf("digest drifted across a decode round trip")
	}
	m := tr2.Meta()
	if m.FormatVersion != trace.FormatVersion || m.Steps != tr.Steps ||
		m.ProgramDigest != p.Digest() || m.Digest != tr.Digest() {
		t.Fatalf("meta disagrees with trace: %+v", m)
	}
	// An independent recording of the same program encodes to the same
	// bytes — the property that makes Digest a content address.
	if d := recordToHalt(t, p).Digest(); d != tr.Digest() {
		t.Fatalf("two recordings of one program digest differently")
	}
}

func TestCompactEncoding(t *testing.T) {
	p := rdg.RandomProgram(9)
	tr := recordToHalt(t, p)
	raw := tr.Encode()
	perStep := float64(len(raw)) / float64(tr.Steps)
	// A Step is >64 bytes in memory; the format's reason to exist is
	// storing only the non-derivable remainder. ~4 bytes/step covers
	// value deltas; beyond 12 the delta coding is broken.
	if perStep > 12 {
		t.Fatalf("encoding is not compact: %.1f bytes/step over %d steps", perStep, tr.Steps)
	}
}

func TestKeyIsStableAndDiscriminates(t *testing.T) {
	p1, p2 := rdg.RandomProgram(1), rdg.RandomProgram(2)
	k := trace.Key(p1.Digest(), 25_000)
	if k != trace.Key(p1.Digest(), 25_000) {
		t.Fatal("Key is not deterministic")
	}
	if len(k) != 64 || strings.ContainsAny(k, "/\\.") {
		t.Fatalf("Key %q is not a plain hex store key", k)
	}
	if k == trace.Key(p1.Digest(), 60_000) {
		t.Fatal("Key ignores the window")
	}
	if k == trace.Key(p2.Digest(), 25_000) {
		t.Fatal("Key ignores the program digest")
	}
}

// TestReplayMachineBitIdentity is the end-to-end contract: a timing
// machine fetching from a Replayer produces run statistics identical to
// one fetching from the live emulator — and the recording machine in
// the middle is itself transparent.
func TestReplayMachineBitIdentity(t *testing.T) {
	p := rdg.RandomProgram(19)
	for _, cfg := range []*config.Config{
		config.Clustered(), config.Base(), config.UpperBound(), config.ClusteredN(4),
	} {
		newSteerer := func() core.Steerer {
			if cfg.Name == "base" || cfg.Name == "upper-bound" {
				return core.NaiveSteerer{}
			}
			params := steer.DefaultParams()
			params.Clusters = cfg.NumClusters()
			st, err := steer.NewWithParams("general", p, params)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}

		live, err := core.New(cfg, p, newSteerer())
		if err != nil {
			t.Fatal(err)
		}
		wantRun, err := live.Run(0)
		if err != nil {
			t.Fatalf("%s: live run: %v", cfg.Name, err)
		}
		want := runDigest(t, wantRun)

		rec := trace.NewRecorder(p)
		recording, err := core.NewWithOracle(cfg, p, newSteerer(), rec)
		if err != nil {
			t.Fatal(err)
		}
		recRun, err := recording.Run(0)
		if err != nil {
			t.Fatalf("%s: recording run: %v", cfg.Name, err)
		}
		if got := runDigest(t, recRun); got != want {
			t.Fatalf("%s: recording machine diverged from live machine", cfg.Name)
		}
		tr := rec.Finalize(0)

		rep, err := trace.NewReplayer(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		replaying, err := core.NewWithOracle(cfg, p, newSteerer(), rep)
		if err != nil {
			t.Fatal(err)
		}
		repRun, err := replaying.Run(0)
		if err != nil {
			t.Fatalf("%s: replay run: %v", cfg.Name, err)
		}
		if got := runDigest(t, repRun); got != want {
			t.Fatalf("%s: replaying machine diverged from live machine", cfg.Name)
		}
	}
}

// TestReplayExhaustionFailsRun locks the no-silent-short-run rule: a
// machine that outruns its trace must fail with ErrOracleExhausted, not
// report a truncated measurement.
func TestReplayExhaustionFailsRun(t *testing.T) {
	p := rdg.RandomProgram(7)
	n := len(liveSteps(t, p))

	rec := trace.NewRecorder(p)
	var st emu.Step
	for i := 0; i < n/2; i++ {
		if err := rec.StepInto(&st); err != nil {
			t.Fatal(err)
		}
	}
	tr := rec.Finalize(0)
	if tr.Halted {
		t.Fatal("half the program should not have halted")
	}

	rep, err := trace.NewReplayer(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewWithOracle(config.Clustered(), p, core.NaiveSteerer{}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(0); !errors.Is(err, core.ErrOracleExhausted) {
		t.Fatalf("run on a truncated trace: got %v, want ErrOracleExhausted", err)
	}
}

// TestRecorderExtend: Extend records past the consumer's demand and
// stops at HALT, so the slack margin can be requested unconditionally.
func TestRecorderExtend(t *testing.T) {
	p := rdg.RandomProgram(7)
	n := uint64(len(liveSteps(t, p)))

	rec := trace.NewRecorder(p)
	var st emu.Step
	for i := uint64(0); i < n/4; i++ {
		if err := rec.StepInto(&st); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Extend(16); err != nil {
		t.Fatal(err)
	}
	if got := rec.Steps(); got != n/4+16 {
		t.Fatalf("after Extend(16): %d steps, want %d", got, n/4+16)
	}
	if err := rec.Extend(stepBudget); err != nil {
		t.Fatal(err)
	}
	if got := rec.Steps(); got != n {
		t.Fatalf("Extend past HALT recorded %d steps, live stream has %d", got, n)
	}
	if !rec.Halted() {
		t.Fatal("recorder not halted after extending to HALT")
	}
	if tr := rec.Finalize(123); tr.Window != 123 || !tr.Halted || tr.Steps != n {
		t.Fatalf("finalized trace header wrong: %+v", tr.Meta())
	}
}

func TestReplayerRejectsWrongProgram(t *testing.T) {
	tr := recordToHalt(t, rdg.RandomProgram(1))
	if _, err := trace.NewReplayer(tr, rdg.RandomProgram(2)); err == nil {
		t.Fatal("replayer accepted a different program")
	}
}

func TestReplayerCloneIndependence(t *testing.T) {
	p := rdg.RandomProgram(9)
	want := liveSteps(t, p)
	tr := recordToHalt(t, p)
	rep, err := trace.NewReplayer(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	var st emu.Step
	const split = 10
	for i := 0; i < split; i++ {
		if err := rep.StepInto(&st); err != nil {
			t.Fatal(err)
		}
	}
	cl, ok := core.Oracle(rep).(core.CloneableOracle)
	if !ok {
		t.Fatal("Replayer must be cloneable (checkpointing depends on it)")
	}
	fork := cl.CloneOracle()
	// Drain the fork first, then the original: identical remainders.
	for _, r := range []core.Oracle{fork, rep} {
		for i := split; i < len(want); i++ {
			if err := r.StepInto(&st); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if !reflect.DeepEqual(st, want[i]) {
				t.Fatalf("step %d differs after clone:\n got: %+v\nwant: %+v", i, st, want[i])
			}
		}
		if !r.Halted() {
			t.Fatal("cursor not halted at end of stream")
		}
	}
}

// recordPrefix records the first n steps of p's stream.
func recordPrefix(t *testing.T, p *prog.Program, n uint64) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(p)
	if err := rec.Extend(n); err != nil {
		t.Fatal(err)
	}
	return rec.Finalize(n)
}

// TestReplayerResumeFrom: a cursor over a longer recording of the same
// program takes over a shorter recording's cursor mid-stream and serves
// the live remainder; anything else — another program, a position past
// its own stream, a live emulator — is refused without moving it.
func TestReplayerResumeFrom(t *testing.T) {
	p := rdg.RandomProgram(9)
	want := liveSteps(t, p)
	short, long := recordPrefix(t, p, 40), recordToHalt(t, p)
	rep, err := trace.NewReplayer(short, p)
	if err != nil {
		t.Fatal(err)
	}
	var st emu.Step
	for i := 0; i < 40; i++ {
		if err := rep.StepInto(&st); err != nil {
			t.Fatal(err)
		}
	}
	if rep.PC() >= 0 {
		t.Fatal("short recording should be exhausted")
	}
	next, err := trace.NewReplayer(long, p)
	if err != nil {
		t.Fatal(err)
	}
	if !next.ResumeFrom(rep) {
		t.Fatal("longer recording refused to resume the shorter one")
	}
	for i := 40; i < len(want); i++ {
		if err := next.StepInto(&st); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !reflect.DeepEqual(st, want[i]) {
			t.Fatalf("step %d differs after resume:\n got: %+v\nwant: %+v", i, st, want[i])
		}
	}
	if !next.Halted() {
		t.Fatal("resumed cursor not halted at end of stream")
	}

	// Refusals leave the receiver at the start of its stream.
	other, err := trace.NewReplayer(recordPrefix(t, rdg.RandomProgram(7), 60), rdg.RandomProgram(7))
	if err != nil {
		t.Fatal(err)
	}
	tooShort, err := trace.NewReplayer(recordPrefix(t, p, 20), p)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		recv *trace.Replayer
		prev core.Oracle
	}{
		"other program":      {other, rep},
		"past its own end":   {tooShort, rep},
		"live emulator prev": {tooShort, core.EmuOracle{M: emu.New(p)}},
	} {
		if c.recv.ResumeFrom(c.prev) {
			t.Errorf("%s: resume accepted", name)
		}
		if c.recv.Steps() != 0 {
			t.Errorf("%s: refused resume moved the cursor to step %d", name, c.recv.Steps())
		}
	}
}

// TestRecorderIsNotCloneable: cloning a recording oracle would let two
// machines append to one buffer; the type must opt out so checkpointing
// fails gracefully instead.
func TestRecorderIsNotCloneable(t *testing.T) {
	var o core.Oracle = trace.NewRecorder(rdg.RandomProgram(1))
	if _, ok := o.(core.CloneableOracle); ok {
		t.Fatal("Recorder must not implement CloneableOracle")
	}
}

// TestDecodeRejectsEveryBitFlip drives the loud-failure rule to its
// strongest form: flipping any single byte of an encoded trace must make
// Decode fail. Nothing in the file is outside the checksum.
func TestDecodeRejectsEveryBitFlip(t *testing.T) {
	enc := recordToHalt(t, rdg.RandomProgram(1)).Encode()
	if _, err := trace.Decode(enc); err != nil {
		t.Fatalf("pristine trace failed decode: %v", err)
	}
	mut := make([]byte, len(enc))
	for i := range enc {
		copy(mut, enc)
		mut[i] ^= 0x41
		if _, err := trace.Decode(mut); err == nil {
			t.Fatalf("byte flip at offset %d of %d decoded silently", i, len(enc))
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := recordToHalt(t, rdg.RandomProgram(1)).Encode()
	for _, n := range []int{0, 3, 5, 6, 20, 40, len(enc) / 2, len(enc) - 1} {
		if _, err := trace.Decode(enc[:n]); err == nil {
			t.Fatalf("trace truncated to %d of %d bytes decoded silently", n, len(enc))
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	enc := recordToHalt(t, rdg.RandomProgram(1)).Encode()
	mut := make([]byte, len(enc))
	copy(mut, enc)
	mut[5] = trace.FormatVersion + 1 // version byte follows the 5-byte magic
	_, err := trace.Decode(mut)
	if err == nil {
		t.Fatal("future-version trace decoded silently")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew reported as %q, want an explicit version error", err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	enc := recordToHalt(t, rdg.RandomProgram(1)).Encode()
	mut := make([]byte, len(enc))
	copy(mut, enc)
	copy(mut, "NOTTR")
	if _, err := trace.Decode(mut); err == nil {
		t.Fatal("non-trace bytes decoded silently")
	}
}

// reencode rebuilds a valid encoding from tampered header fields with a
// correct checksum — corruption the checksum cannot catch, which the
// stream walk (Validate / replay) must.
func reencode(t *testing.T, tr *trace.Trace, steps uint64, halted bool, payload []byte) []byte {
	t.Helper()
	pd, err := hex.DecodeString(tr.ProgramDigest)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("DCATR")
	out = append(out, trace.FormatVersion)
	out = append(out, pd...)
	out = binary.AppendUvarint(out, uint64(tr.Entry))
	out = binary.AppendUvarint(out, tr.Window)
	out = binary.AppendUvarint(out, steps)
	if halted {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(payload)))
	h := sha256.New()
	h.Write(out)
	h.Write(payload)
	out = h.Sum(out)
	return append(out, payload...)
}

// TestValidateCatchesInconsistentStreams covers the well-formedness
// checks beyond byte integrity: a checksummed file whose header
// disagrees with its stream must still fail validation.
func TestValidateCatchesInconsistentStreams(t *testing.T) {
	p := rdg.RandomProgram(1)
	tr := recordToHalt(t, p)
	enc := tr.Encode()
	payload := enc[len(enc)-tr.Meta().PayloadBytes:]

	cases := []struct {
		name    string
		steps   uint64
		halted  bool
		payload []byte
	}{
		{"trailing payload byte", tr.Steps, tr.Halted, append(append([]byte(nil), payload...), 0)},
		{"steps beyond stream", tr.Steps + 1, tr.Halted, payload},
		{"understated steps", tr.Steps - 1, tr.Halted, payload},
		{"halted flag lies", tr.Steps, false, payload},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := trace.Decode(reencode(t, tr, c.steps, c.halted, c.payload))
			if err != nil {
				t.Fatalf("decode should pass (bytes are checksummed): %v", err)
			}
			if err := got.Validate(p); err == nil {
				t.Fatal("inconsistent stream validated silently")
			}
		})
	}
}

// TestEncodeStepsRejectsForeignStream: the encoder cross-checks every
// derivable field, so a stream the program cannot have produced is
// rejected at encode time (the convert path's safety).
func TestEncodeStepsRejectsForeignStream(t *testing.T) {
	p := rdg.RandomProgram(7)
	steps := liveSteps(t, p)

	if _, err := trace.EncodeSteps(p, 0, steps); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	tamper := func(name string, f func([]emu.Step)) {
		t.Run(name, func(t *testing.T) {
			mut := append([]emu.Step(nil), steps...)
			f(mut)
			if _, err := trace.EncodeSteps(p, 0, mut); err == nil {
				t.Fatal("tampered stream encoded silently")
			}
		})
	}
	tamper("wrong seq", func(s []emu.Step) { s[3].Seq++ })
	tamper("wrong pc", func(s []emu.Step) { s[3].PC = s[4].PC })
	tamper("wrong inst", func(s []emu.Step) { s[3].Inst.Imm++ })
	tamper("broken pc chain", func(s []emu.Step) { s[3].NextPC = s[3].PC })
	tamper("dropped writeback", func(s []emu.Step) {
		for i := range s {
			if s[i].WroteReg {
				s[i].WroteReg = false
				return
			}
		}
	})
	tamper("stream against wrong program", func(s []emu.Step) {
		other := liveSteps(t, rdg.RandomProgram(8))
		copy(s, other)
	})
}
