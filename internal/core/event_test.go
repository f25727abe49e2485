package core

import (
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/prog"
)

// countEvents attaches a probe that tallies the machine's pipeline events
// by type.
func countEvents(m *Machine) *[EvRedirect + 1]uint64 {
	var n [EvRedirect + 1]uint64
	m.SetProbe(eventProbe(func(_ uint64, ev Event, _ *DynInst) { n[ev]++ }))
	return &n
}

func TestCountingTracerSeesPipelineFlow(t *testing.T) {
	p := mustProg(t, `
.data
x: .word 7
.text
  li  r1, x
  ld  r2, 0(r1)
  add r3, r2, r2
  beq r3, r0, skip
  addi r4, r4, 1
skip:
  halt
`)
	m, err := New(config.Clustered(), p, NaiveSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	ct := countEvents(m)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	n := p.Text // every instruction dispatches, issues, completes, commits
	if ct[EvDispatch] != uint64(len(n)) {
		t.Errorf("dispatch events = %d, want %d", ct[EvDispatch], len(n))
	}
	if ct[EvCommit] != uint64(len(n)) {
		t.Errorf("commit events = %d, want %d", ct[EvCommit], len(n))
	}
	if ct[EvIssue] < ct[EvDispatch] {
		t.Errorf("issue events (%d) below dispatch (%d)", ct[EvIssue], ct[EvDispatch])
	}
	// A load has two completions (EA + data): completes > dispatches.
	if ct[EvComplete] <= ct[EvDispatch] {
		t.Errorf("complete events = %d, want > %d", ct[EvComplete], ct[EvDispatch])
	}
}

func TestCopyEventsTraced(t *testing.T) {
	b := prog.NewBuilder("chain")
	b.Addi(isa.R(1), isa.R(0), 1)
	for i := 0; i < 50; i++ {
		b.Addi(isa.R(1), isa.R(1), 1)
	}
	b.Halt()
	m, err := New(config.Clustered(), b.MustBuild(), &moduloSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	ct := countEvents(m)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if ct[EvCopyInserted] == 0 {
		t.Error("no copy events on a modulo-steered chain")
	}
}

func TestEventString(t *testing.T) {
	names := map[Event]string{
		EvDispatch: "dispatch", EvCopyInserted: "copy", EvIssue: "issue",
		EvComplete: "complete", EvCommit: "commit", EvRedirect: "redirect",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("Event %d = %q, want %q", ev, ev.String(), want)
		}
	}
}
