package experiments

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/job/store"
	"repro/internal/stats"
	"repro/internal/steer"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current simulator")

// goldenSpec is the fixed grid the golden file pins: every registered
// scheme plus the base and upper-bound machines, on the paper's two
// benchmarks with known-interesting behaviour, at a short window.
func goldenSpec() job.GridSpec {
	return job.GridSpec{Schemes: goldenSchemes(), Benchmarks: []string{"go", "compress"},
		Warmup: 5_000, Measure: 25_000}
}

// goldenSchemes returns the full scheme set the golden grid must cover, in
// the file's deterministic order.
func goldenSchemes() []string {
	names := steer.Names()
	sort.Strings(names)
	return append([]string{job.BaseScheme, job.UBScheme}, names...)
}

// formatGoldenRun renders one measurement record in the fixed format of
// testdata/golden_n2.txt (captured from the pre-generalization two-cluster
// simulator and re-pinned across the allocation-free hot-loop rewrite and
// the job-layer refactor).
//
// The steering split lists every cluster's count, and at least two (a
// single-cluster machine prints its empty second cluster), so the
// two-cluster file reads exactly as it did when the field had two slots.
func formatGoldenRun(scheme, bench string, r *stats.Run) string {
	steered := make([]string, max(2, len(r.Steered)))
	for c := range steered {
		steered[c] = strconv.FormatUint(r.SteeredAt(c), 10)
	}
	return fmt.Sprintf("%s/%s cycles=%d instrs=%d copies=%d critcopies=%d steered=%s repl=%.6f mispred=%d branches=%d l1d=%.6f l1i=%.6f balsamples=%d balbuckets=%v",
		scheme, bench, r.Cycles, r.Instructions, r.Copies, r.CriticalCopies,
		strings.Join(steered, ","), r.ReplicatedRegsAvg, r.Mispredicts, r.Branches,
		r.L1DMissRate, r.L1IMissRate, r.Balance.Samples, r.Balance.Buckets)
}

// runCell plans the (scheme, bench) cell of g with job.Spec.Plan, as every
// grid does, and simulates it through runner.
func runCell(t *testing.T, runner job.Runner, g job.GridSpec, scheme, bench string) *stats.Run {
	t.Helper()
	j, err := job.Spec{Scheme: scheme, Benchmark: bench, Clusters: g.Clusters,
		Warmup: g.Warmup, Measure: g.Measure, Params: g.Params}.Plan()
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, bench, err)
	}
	r, err := runner.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, bench, err)
	}
	return r
}

// goldenLine simulates one cell through runner and renders its golden
// record.
func goldenLine(t *testing.T, runner job.Runner, g job.GridSpec, scheme, bench string) string {
	t.Helper()
	return formatGoldenRun(scheme, bench, runCell(t, runner, g, scheme, bench))
}

// TestGoldenTwoClusterBitIdentity replays the full scheme × benchmark grid
// on the paper's two-cluster machines and requires every statistic — cycle
// counts, copies, per-cluster steering splits, the full balance histogram —
// to be bit-identical to the golden record. The file was captured before
// the N-cluster generalization and re-checked, unchanged, after the
// allocation-free hot-loop rewrite: any behavioural drift of the N = 2
// path, however small, fails this test. Regenerate deliberately with
// `go test ./internal/experiments -run TestGolden -update`.
func TestGoldenTwoClusterBitIdentity(t *testing.T) {
	checkGoldenGrid(t, "testdata/golden_n2.txt", goldenSpec())
}

// TestGoldenNClusterBitIdentity extends the lock to the generalized
// machine: every registered scheme on the same two benchmarks and windows,
// steering a symmetric 4- and 8-cluster machine (config.ClusteredN). The
// differential harness's random programs reach a few thousand
// instructions at most; these cells pin the N-way balance machinery on
// real workloads, with every cluster's steered count in each record.
// Regenerate deliberately with `go test ./internal/experiments -run
// TestGolden -update`.
func TestGoldenNClusterBitIdentity(t *testing.T) {
	names := steer.Names()
	sort.Strings(names)
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			g := goldenSpec()
			g.Schemes, g.Clusters = names, n
			checkGoldenGrid(t, fmt.Sprintf("testdata/golden_n%d.txt", n), g)
		})
	}
}

// checkGoldenGrid verifies (or, under -update, rewrites) the golden file
// at path for the g.Schemes × g.Benchmarks grid, simulated directly.
// Verification is followed by a completeness gate: a steering scheme
// registered without golden coverage would silently escape the
// bit-identity lock.
func checkGoldenGrid(t *testing.T, path string, g job.GridSpec) {
	t.Helper()
	if *updateGolden {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range g.Schemes {
			for _, bench := range g.Benchmarks {
				fmt.Fprintln(f, goldenLine(t, job.Direct{}, g, scheme, bench))
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	covered := verifyGoldenFile(t, path, g, job.Direct{})
	for _, scheme := range g.Schemes {
		if !covered[scheme] {
			t.Errorf("scheme %q has no golden coverage in %s (rerun with -update)", scheme, path)
		}
	}
}

// verifyGoldenFile replays every cell recorded in the golden file at path
// on g's machine size and window through runner, and requires each
// rendered record to match byte for byte. It returns the set of schemes
// the file covered.
func verifyGoldenFile(t *testing.T, path string, g job.GridSpec, runner job.Runner) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	covered := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		want := strings.TrimSpace(sc.Text())
		if want == "" {
			continue
		}
		cell := strings.SplitN(strings.Fields(want)[0], "/", 2)
		if len(cell) != 2 {
			t.Fatalf("malformed golden line: %q", want)
		}
		scheme, bench := cell[0], cell[1]
		covered[scheme] = true
		t.Run(scheme+"/"+bench, func(t *testing.T) {
			if got := goldenLine(t, runner, g, scheme, bench); got != want {
				t.Errorf("stats diverged from pre-refactor golden\n got: %s\nwant: %s", got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return covered
}

// TestGoldenCheckpointedRunner replays the same golden grid through a
// shared job.Checkpointed runner: planning each cell, warming it behind a
// warm-state snapshot and measuring must leave every statistic — cycle
// counts, copies, steering splits, the full balance histogram —
// bit-identical to the per-cycle, direct-runner record. Combined with the
// runner-level round-trip tests in internal/job, this locks the whole
// warm-checkpoint path end to end.
func TestGoldenCheckpointedRunner(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are updated through the default runner")
	}
	verifyGoldenFile(t, "testdata/golden_n2.txt", goldenSpec(), &job.Checkpointed{})
}

// TestGoldenTracedRunner replays the full golden grid through the
// record-once / replay-many trace layer, twice: cold (this process
// records the oracle stream once per benchmark and replays it for every
// scheme) and store-warm (a second Traced runner serving recordings from
// the shared blob store, modelling a later process). Every statistic
// must stay bit-identical to the direct-runner record — replaying a
// recorded front end is an optimization, never a behaviour.
func TestGoldenTracedRunner(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are updated through the default runner")
	}
	g := goldenSpec()
	blobs := store.NewMemory(0)

	cold := &job.Traced{Blobs: blobs}
	verifyGoldenFile(t, "testdata/golden_n2.txt", g, cold)
	m := cold.Metrics()
	// One recording per benchmark of the grid — the amortization the
	// layer exists for — and no cell may outrun the slack margin (a
	// fallback would still be bit-identical, but the perf win gone).
	if want := uint64(len(g.Benchmarks)); m.Recordings != want {
		t.Errorf("cold grid made %d recordings, want exactly %d (one per benchmark)", m.Recordings, want)
	}
	if m.LiveFallbacks != 0 {
		t.Errorf("cold grid fell back live %d times, want 0", m.LiveFallbacks)
	}

	warm := &job.Traced{Blobs: blobs}
	verifyGoldenFile(t, "testdata/golden_n2.txt", g, warm)
	if m := warm.Metrics(); m.Recordings != 0 || m.BlobHits != uint64(len(g.Benchmarks)) {
		t.Errorf("store-warm grid metrics %+v, want 0 recordings and %d blob hits", m, len(g.Benchmarks))
	}

	// The composed stack — traces over warm snapshots, as the benchmark's
	// sweep-reuse workload runs it — must hold the same line.
	verifyGoldenFile(t, "testdata/golden_n2.txt", g, &job.Traced{Next: &job.Checkpointed{}, Blobs: blobs})
}
