// Checkpoint round-trip suite: restoring a warm-state snapshot and
// measuring must be byte-identical (JSON-encoded stats.Run) to measuring
// the unbroken machine, for every registered steering scheme across
// cluster counts; so must continuing a measurement from a snapshot taken
// after it. Restored machines must keep the allocation-free steady state.
package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rdg"
	"repro/internal/stats"
	"repro/internal/steer"
)

// cpWarmup leaves plenty of in-flight state at the snapshot point (decode
// queue, issue queues, LSQ, pending wheel events) without exhausting the
// rdg programs, which run for a few thousand dynamic instructions.
const cpWarmup = 300

func runJSON(t *testing.T, r *stats.Run, err error, label string) []byte {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return b
}

// checkpointRoundTrip locks cp-based measurement against the unbroken run
// for one machine-building function.
func checkpointRoundTrip(t *testing.T, label string, newMachine func() *core.Machine) {
	t.Helper()
	// Unbroken reference run.
	ref, err := newMachine().RunWithWarmup(cpWarmup, 0)
	want := runJSON(t, ref, err, label+" unbroken")

	// Warm once, snapshot, measure twice from the same snapshot (the
	// checkpoint must be reusable), then measure the warmed machine itself
	// (the snapshot must not have disturbed it).
	m := newMachine()
	if err := m.Warm(cpWarmup); err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	cp, ok := m.Checkpoint()
	if !ok {
		t.Fatalf("%s: machine not checkpointable", label)
	}
	for pass := 1; pass <= 2; pass++ {
		r, err := cp.Measure(0)
		got := runJSON(t, r, err, label+" restored")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: restored measurement pass %d diverged\n got: %s\nwant: %s", label, pass, got, want)
		}
	}
	r, err := m.Measure(0)
	got := runJSON(t, r, err, label+" original")
	if !bytes.Equal(got, want) {
		t.Errorf("%s: snapshotted machine's own measurement diverged\n got: %s\nwant: %s", label, got, want)
	}
}

// TestCheckpointRoundTrip covers every registered steering scheme on 2-,
// 4- and 8-cluster machines.
func TestCheckpointRoundTrip(t *testing.T) {
	forEachSchemeMachine(t, checkpointRoundTrip)
}

// forEachSchemeMachine calls check with a machine builder for every
// registered steering scheme on 2-, 4- and 8-cluster machines, all over
// one random program.
func forEachSchemeMachine(t *testing.T, check func(t *testing.T, label string, newMachine func() *core.Machine)) {
	t.Helper()
	p := rdg.RandomProgram(7)
	for _, n := range []int{2, 4, 8} {
		for _, scheme := range steer.Names() {
			cfg := diffConfigFor(scheme, n)
			newMachine := func() *core.Machine {
				params := steer.DefaultParams()
				params.Clusters = cfg.NumClusters()
				st, err := steer.NewWithParams(scheme, p, params)
				if err != nil {
					t.Fatalf("%s: %v", scheme, err)
				}
				m, err := core.New(cfg, p, st)
				if err != nil {
					t.Fatalf("%s/n=%d: %v", scheme, n, err)
				}
				return m
			}
			check(t, scheme+"/n="+string(rune('0'+n)), newMachine)
		}
	}
}

// cpWindow and cpLonger are the continuation suite's two measurement
// windows after cpWarmup; together they stay inside the random program,
// which runs about 900 dynamic instructions, so the longer window ends
// before HALT and a third, until-HALT window still has ground to cover.
const (
	cpWindow = 150
	cpLonger = 400
)

// TestCheckpointContinuesMeasurement locks the measurement frontier on
// the round-trip matrix: a machine warmed, measured over cpWindow and
// snapshotted continues its measurement. Measuring the machine itself, or
// a restored copy, over a longer window (cpLonger, then until HALT) must
// be byte-identical to an unbroken RunWithWarmup over that window; the
// same window again returns the first record; a shorter one is refused.
func TestCheckpointContinuesMeasurement(t *testing.T) {
	forEachSchemeMachine(t, checkpointContinuation)
}

// checkpointContinuation runs the continuation checks for one
// machine-building function.
func checkpointContinuation(t *testing.T, label string, newMachine func() *core.Machine) {
	t.Helper()
	unbroken := func(window uint64) []byte {
		r, err := newMachine().RunWithWarmup(cpWarmup, window)
		return runJSON(t, r, err, fmt.Sprintf("%s unbroken %d", label, window))
	}
	m := newMachine()
	if err := m.Warm(cpWarmup); err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	r, err := m.Measure(cpWindow)
	first := runJSON(t, r, err, label+" first window")
	if want := unbroken(cpWindow); !bytes.Equal(first, want) {
		t.Fatalf("%s: first window diverged\n got: %s\nwant: %s", label, first, want)
	}
	cp, ok := m.Checkpoint()
	if !ok {
		t.Fatalf("%s: machine not checkpointable", label)
	}
	r, err = cp.Measure(cpWindow)
	if got := runJSON(t, r, err, label+" repeated window"); !bytes.Equal(got, first) {
		t.Errorf("%s: repeated window diverged from its first record\n got: %s\nwant: %s", label, got, first)
	}
	for _, short := range []*core.Machine{m, cp.Restore()} {
		if _, err := short.Measure(cpWindow - 1); err == nil {
			t.Errorf("%s: a window shorter than the one measured was accepted", label)
		}
	}
	for _, window := range []uint64{cpLonger, 0} {
		want := unbroken(window)
		r, err := cp.Measure(window)
		if got := runJSON(t, r, err, label+" restored"); !bytes.Equal(got, want) {
			t.Errorf("%s: restored continuation to window %d diverged\n got: %s\nwant: %s", label, window, got, want)
		}
		r, err = m.Measure(window)
		if got := runJSON(t, r, err, label+" original"); !bytes.Equal(got, want) {
			t.Errorf("%s: continuation to window %d diverged\n got: %s\nwant: %s", label, window, got, want)
		}
	}
	// The machine has measured until HALT, the longest window: frozen
	// without a copy, it still serves that window and refuses any other.
	fz, ok := m.Freeze()
	if !ok {
		t.Fatalf("%s: measured machine not freezable", label)
	}
	r, err = fz.Measure(0)
	if got, want := runJSON(t, r, err, label+" frozen"), unbroken(0); !bytes.Equal(got, want) {
		t.Errorf("%s: frozen machine's repeated window diverged\n got: %s\nwant: %s", label, got, want)
	}
	if _, err := fz.Measure(cpLonger); err == nil {
		t.Errorf("%s: a finite window after until-HALT was accepted", label)
	}
}

// TestCheckpointRoundTripBaseMachines covers the two reference machines,
// which run the naive conventional split.
func TestCheckpointRoundTripBaseMachines(t *testing.T) {
	p := rdg.RandomProgram(9)
	for _, cfg := range []*config.Config{config.Base(), config.UpperBound()} {
		cfg := cfg
		newMachine := func() *core.Machine {
			m, err := core.New(cfg, p, core.NaiveSteerer{})
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			return m
		}
		checkpointRoundTrip(t, cfg.Name, newMachine)
	}
}

// plainSteerer implements core.Steerer without CloneSteerer.
type plainSteerer struct{ core.NopSteerer }

func (plainSteerer) Name() string                         { return "plain" }
func (plainSteerer) Steer(*core.SteerInfo) core.ClusterID { return core.IntCluster }

// TestCheckpointRequiresCloneableSteerer pins the refusal path: a policy
// that cannot snapshot its state makes the machine non-checkpointable
// (rather than silently sharing steering tables between runs).
func TestCheckpointRequiresCloneableSteerer(t *testing.T) {
	m, err := core.New(config.Clustered(), rdg.RandomProgram(1), plainSteerer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Checkpoint(); ok {
		t.Fatal("machine with a non-cloneable steerer reported checkpointable")
	}
}

// TestCheckpointRestoredMachineAllocFree runs the steady-state allocation
// gate on a restored machine: every capacity (pools, rings, scratch
// buffers, free lists) must survive the snapshot/restore round trip, or
// the first cycles after restore re-grow structures the clone shrank.
// Like TestSteadyStateCycleAllocs it counts every allocation over 20k
// cycles and requires exactly 0.
func TestCheckpointRestoredMachineAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full warm-up")
	}
	for _, bc := range benchCases() {
		t.Run(bc.name, func(t *testing.T) {
			cp, ok := newBenchMachine(t, bc).Checkpoint()
			if !ok {
				t.Fatal("bench machine not checkpointable")
			}
			m := cp.Restore()
			if m == nil {
				t.Fatal("restore failed")
			}
			if n := mallocsOver(t, m, 20_000); n != 0 {
				t.Fatalf("restored machine allocated %d times in 20000 cycles (want 0)", n)
			}
		})
	}
}

// TestCheckpointFrontierAllocFree is the allocation gate for a
// measurement frontier: a machine warmed, measured and snapshotted keeps
// every capacity through the round trip, so the restored copy continuing
// the measurement allocates nothing over 20k cycles.
func TestCheckpointFrontierAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full warm-up")
	}
	for _, bc := range benchCases() {
		t.Run(bc.name, func(t *testing.T) {
			m := newCaseMachine(t, bc, benchProgram(), nil)
			if _, err := m.RunWithWarmup(10_000, 20_000); err != nil {
				t.Fatal(err)
			}
			cp, ok := m.Freeze()
			if !ok {
				t.Fatal("measured bench machine not freezable")
			}
			r := cp.Restore()
			if r == nil {
				t.Fatal("restore failed")
			}
			if n := mallocsOver(t, r, 20_000); n != 0 {
				t.Fatalf("restored frontier allocated %d times in 20000 cycles (want 0)", n)
			}
		})
	}
}
