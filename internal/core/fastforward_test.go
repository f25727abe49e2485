package core

// Fast-forward differential suite: a machine with event-driven
// fast-forward enabled is locked, cycle for cycle, against an identically
// configured machine stepping every cycle. The comparison is total — the
// full commit stream with cycle stamps, the final cycle count, the
// complete measurement record and the final architectural state — so any
// idle-window misjudgment in ffIdle or wake miscalculation in ffWake fails
// loudly rather than skewing statistics quietly.

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/rdg"
	"repro/internal/stats"
)

// ffCommit is one committed program instruction with its commit cycle; the
// two machines must produce identical sequences.
type ffCommit struct {
	cycle uint64
	seq   uint64
	pc    int
}

// ffWarmup exercises the warm/measure boundary under fast-forward: short
// programs halt during warm-up, longer ones cross into measurement.
const ffWarmup = 200

// ffRun simulates the seed's program on cfg with fast-forward set as
// given, recording the commit stream.
func ffRun(t *testing.T, cfg *config.Config, seed int64, ff bool) ([]ffCommit, *stats.Run, uint64) {
	t.Helper()
	p := rdg.RandomProgram(seed)
	m, err := New(cfg, p, steererFor(cfg, seed))
	if err != nil {
		t.Fatalf("seed %d/%s: %v", seed, cfg.Name, err)
	}
	m.SetFastForward(ff)
	var commits []ffCommit
	m.SetProbe(eventProbe(func(cycle uint64, ev Event, d *DynInst) {
		if ev == EvCommit && !d.IsCopy {
			commits = append(commits, ffCommit{cycle: cycle, seq: d.ProgSeq, pc: d.PC})
		}
	}))
	r, err := m.RunWithWarmup(ffWarmup, 0)
	if err != nil {
		t.Fatalf("seed %d/%s ff=%v: %v (%s)", seed, cfg.Name, ff, err, m.dumpState())
	}
	return commits, r, m.Cycle()
}

// ffDifferential runs one (config, seed) cell both ways and requires
// bit-identity.
func ffDifferential(t *testing.T, cfg *config.Config, seed int64) {
	t.Helper()
	slowC, slowR, slowCycles := ffRun(t, cfg, seed, false)
	fastC, fastR, fastCycles := ffRun(t, cfg, seed, true)

	if fastCycles != slowCycles {
		t.Fatalf("seed %d/%s: fast-forward finished at cycle %d, per-cycle stepping at %d",
			seed, cfg.Name, fastCycles, slowCycles)
	}
	if len(fastC) != len(slowC) {
		t.Fatalf("seed %d/%s: fast-forward committed %d instructions, per-cycle %d",
			seed, cfg.Name, len(fastC), len(slowC))
	}
	for i := range slowC {
		if fastC[i] != slowC[i] {
			t.Fatalf("seed %d/%s: commit %d diverged: ff=%+v per-cycle=%+v",
				seed, cfg.Name, i, fastC[i], slowC[i])
		}
	}
	if !reflect.DeepEqual(*fastR, *slowR) {
		t.Fatalf("seed %d/%s: measurement records diverged\n  ff:        %+v\n  per-cycle: %+v",
			seed, cfg.Name, *fastR, *slowR)
	}
}

// TestFastForwardDifferential sweeps the differential over every machine
// configuration; plain `go test ./...` gates the fast-forward suite
// through it (the fuzz target extends the sweep under `make ci`).
func TestFastForwardDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 9, 13, 19} {
		for _, cfg := range fuzzConfigs() {
			ffDifferential(t, cfg, seed)
		}
	}
}

// FuzzFastForward is the native fuzz target over the same property,
// seeded from the FuzzCoSimulate corpus pairs (dense LSQ aliasing, FP
// cross-cluster chains, call/return pressure — the shapes most likely to
// open and close idle windows at awkward points).
func FuzzFastForward(f *testing.F) {
	for _, c := range []struct {
		seed   int64
		cfgIdx uint8
	}{
		{7, 0}, {7, 6}, {9, 3}, {9, 7}, {19, 0}, {19, 6}, {23, 5}, {31, 4}, {1, 1}, {13, 2},
	} {
		f.Add(c.seed, c.cfgIdx)
	}
	configs := fuzzConfigs()
	f.Fuzz(func(t *testing.T, seed int64, cfgIdx uint8) {
		ffDifferential(t, configs[int(cfgIdx)%len(configs)], seed)
	})
}
