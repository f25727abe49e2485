// Checkpoint round-trip suite: restoring a warm-state snapshot and
// measuring must be byte-identical (JSON-encoded stats.Run) to measuring
// the unbroken machine, for every registered steering scheme across
// cluster counts, and the restored machine must keep the allocation-free
// steady state.
package core_test

import (
	"bytes"
	"encoding/json"
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
			checkpointRoundTrip(t, scheme+"/n="+string(rune('0'+n)), newMachine)
		}
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
