package experiments

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/job/store"
)

// readGoldenLines loads testdata/golden_n2.txt as cell -> formatted record.
func readGoldenLines(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/golden_n2.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lines[strings.Fields(line)[0]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestGoldenGridThroughStore is the cache-correctness lock: the full
// golden grid (every scheme × benchmark of testdata/golden_n2.txt), routed
// through the job layer and a tiered LRU+disk store, must match the golden
// file on the cold pass AND on the cache-hit pass — and both passes must
// produce bit-identical result digests. A store that perturbed a single
// bit of a single float would fail this test.
func TestGoldenGridThroughStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid in -short mode")
	}
	golden := readGoldenLines(t)
	g := goldenSpec()

	disk, err := store.NewDisk(filepath.Join(t.TempDir(), "results"))
	if err != nil {
		t.Fatal(err)
	}
	cached := store.NewCached(store.Tiered{Fast: store.NewMemory(16), Slow: disk}, nil)
	pool := job.PoolOptions{Runner: cached}

	pass := func(name string) map[string]string {
		res, err := Run(context.Background(), g, pool, false)
		if err != nil {
			t.Fatalf("%s pass: %v", name, err)
		}
		digests := map[string]string{}
		for _, scheme := range g.Schemes {
			for _, bench := range g.Benchmarks {
				r := res.Get(scheme, bench)
				if r == nil {
					t.Fatalf("%s pass: missing %s/%s", name, scheme, bench)
				}
				cell := scheme + "/" + bench
				if got := formatGoldenRun(scheme, bench, r); got != golden[cell] {
					t.Errorf("%s pass: %s diverged from golden\n got: %s\nwant: %s", name, cell, got, golden[cell])
				}
				digests[cell] = job.ResultDigest(r)
			}
		}
		return digests
	}

	cold := pass("cold")
	m := cached.Metrics()
	wantCells := uint64(len(g.Schemes) * len(g.Benchmarks))
	if m.Misses != wantCells {
		t.Errorf("cold pass simulated %d cells, want %d", m.Misses, wantCells)
	}

	warm := pass("warm")
	m = cached.Metrics()
	if m.Misses != wantCells {
		t.Errorf("warm pass re-simulated %d cells — every cell must come from the store", m.Misses-wantCells)
	}
	if m.Hits < wantCells {
		t.Errorf("warm pass hit the store %d times, want >= %d", m.Hits, wantCells)
	}

	for cell, d := range cold {
		if warm[cell] != d {
			t.Errorf("%s: cache-hit digest %s != cold digest %s", cell, warm[cell], d)
		}
	}
}
