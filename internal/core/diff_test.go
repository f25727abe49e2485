// Differential test harness: lock-step co-simulation of the detailed
// timing machine against the functional oracle, across cluster counts and
// every registered steering scheme, pinned to a golden digest file.
//
// The harness is the behavioural lock on the allocation-free hot-loop
// rewrite (see ARCHITECTURE.md): the digests in testdata/diff_golden.txt
// were captured from the unoptimized cycle loop, so any drift in committed
// architectural state or steering statistics — cycles, copies, per-cluster
// steering splits, replication, the full balance histogram — fails the
// test. Regenerate deliberately with:
//
//	go test ./internal/core -run TestDifferential -update
package core_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/probe"
	"repro/internal/rdg"
	"repro/internal/steer"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from the current simulator")

// diffSeeds are the rdg program seeds the harness simulates. Three
// programs (one short, two with ~1k dynamic instructions) keep the matrix
// cheap while covering distinct dependence shapes; the fuzz harness sweeps
// many more seeds without golden pinning.
var diffSeeds = []int64{1, 7, 9}

// diffConfigFor mirrors experiments.configFor: the paper's asymmetric
// two-cluster machine at n = 2 (FIFO variant for the fifo scheme),
// config.ClusteredN above.
func diffConfigFor(scheme string, n int) *config.Config {
	if n == 2 {
		if scheme == "fifo" {
			return config.FIFOClustered()
		}
		return config.Clustered()
	}
	if scheme == "fifo" {
		return config.ClusteredNFIFO(n)
	}
	return config.ClusteredN(n)
}

// lockstep steps a reference emulator once per committed program
// instruction and checks the commit stream matches it exactly: same
// dynamic sequence number, same PC, in program order.
type lockstep struct {
	ref      *emu.Machine
	divergeA string
}

func (ls *lockstep) commit(cycle uint64, ev core.Event, d *core.DynInst) {
	if ev != core.EvCommit || d.IsCopy || ls.divergeA != "" {
		return
	}
	st, err := ls.ref.Step()
	if err != nil {
		ls.divergeA = fmt.Sprintf("cycle %d: reference emulator: %v", cycle, err)
		return
	}
	if st.Seq != d.ProgSeq || st.PC != d.PC {
		ls.divergeA = fmt.Sprintf("cycle %d: committed seq=%d pc=%d, reference executed seq=%d pc=%d",
			cycle, d.ProgSeq, d.PC, st.Seq, st.PC)
	}
}

// regHash digests an architectural register file.
func regHash(regs [isa.NumRegs]int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range regs {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// diffLine runs one (clusters, scheme, seed) cell to completion under
// lock-step oracle checking and renders its digest line.
func diffLine(t *testing.T, n int, scheme string, seed int64) string {
	t.Helper()
	return diffLineProbed(t, n, scheme, seed, nil)
}

// diffLineProbed is diffLine with an extra probe attached alongside the
// lock-step checker; TestProbePassivityDifferential uses it to prove the
// probe stack leaves every digest untouched.
func diffLineProbed(t *testing.T, n int, scheme string, seed int64, extra core.Probe) string {
	t.Helper()
	p := rdg.RandomProgram(seed)
	cfg := diffConfigFor(scheme, n)
	params := steer.DefaultParams()
	params.Clusters = cfg.NumClusters()
	st, err := steer.NewWithParams(scheme, p, params)
	if err != nil {
		t.Fatalf("scheme %s: %v", scheme, err)
	}
	m, err := core.New(cfg, p, st)
	if err != nil {
		t.Fatalf("n=%d %s seed=%d: %v", n, scheme, seed, err)
	}
	ls := &lockstep{ref: emu.New(p)}
	m.SetProbe(probe.Multi(core.EventProbe(ls.commit), extra))
	r, err := m.Run(0)
	if err != nil {
		t.Fatalf("n=%d %s seed=%d: %v", n, scheme, seed, err)
	}
	if ls.divergeA != "" {
		t.Fatalf("n=%d %s seed=%d: lock-step divergence: %s", n, scheme, seed, ls.divergeA)
	}
	if !ls.ref.Halted {
		// Drain the reference to HALT (the machine commits HALT too, so
		// the checker should already have consumed the full stream).
		t.Fatalf("n=%d %s seed=%d: reference emulator not halted after run", n, scheme, seed)
	}
	if got, want := m.OracleRegisters(), ls.ref.Reg; got != want {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d %s seed=%d: architectural r%d differs: oracle %d, reference %d",
					n, scheme, seed, i, got[i], want[i])
			}
		}
	}
	return fmt.Sprintf("n=%d/%s/seed=%d cycles=%d instrs=%d copies=%d critcopies=%d steered=%v repl=%.6f mispred=%d branches=%d l1d=%.6f l1i=%.6f balsamples=%d balbuckets=%v regs=%s",
		n, scheme, seed, r.Cycles, r.Instructions, r.Copies, r.CriticalCopies,
		r.Steered, r.ReplicatedRegsAvg, r.Mispredicts, r.Branches,
		r.L1DMissRate, r.L1IMissRate, r.Balance.Samples, r.Balance.Buckets,
		regHash(m.OracleRegisters()))
}

const diffGoldenPath = "testdata/diff_golden.txt"

// readGoldenDigests loads the pinned digest lines; both the plain harness
// and the probed passivity variant compare against the same file.
func readGoldenDigests(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(diffGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to capture a golden baseline)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDifferentialHarness simulates every registered steering scheme on
// 2-, 4- and 8-cluster machines over rdg random programs, verifying three
// things per cell: (a) the commit stream matches a lock-step reference
// emulator instruction for instruction, (b) final architectural state is
// bit-identical to the reference, and (c) the full measurement record —
// committed state and steering statistics — is bit-identical to the golden
// digest captured from the pre-optimization cycle loop.
func TestDifferentialHarness(t *testing.T) {
	var lines []string
	for _, n := range []int{2, 4, 8} {
		for _, scheme := range steer.Names() {
			for _, seed := range diffSeeds {
				lines = append(lines, diffLine(t, n, scheme, seed))
			}
		}
	}

	if *update {
		f, err := os.Create(diffGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			fmt.Fprintln(f, l)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), diffGoldenPath)
		return
	}

	want := readGoldenDigests(t)
	if len(want) != len(lines) {
		t.Fatalf("golden has %d digests, harness produced %d (matrix changed? rerun with -update)",
			len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("digest diverged from pre-optimization golden\n got: %s\nwant: %s", lines[i], want[i])
		}
	}
}

// TestDifferentialDeterminism runs one representative cell twice and
// requires identical digests: the cycle loop must be a pure function of
// (config, program, scheme), with no map-iteration or allocator order
// leaking into results.
func TestDifferentialDeterminism(t *testing.T) {
	for _, n := range []int{2, 8} {
		a := diffLine(t, n, "general", diffSeeds[0])
		b := diffLine(t, n, "general", diffSeeds[0])
		if a != b {
			t.Fatalf("n=%d: nondeterministic run\nfirst:  %s\nsecond: %s", n, a, b)
		}
	}
}
