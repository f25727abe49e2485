package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/stats"
)

// runnerFunc adapts a function to job.Runner — the engine's injection seam
// for failure and counting tests.
type runnerFunc func(ctx context.Context, j job.Job) (*stats.Run, error)

func (f runnerFunc) Run(ctx context.Context, j job.Job) (*stats.Run, error) { return f(ctx, j) }

// TestSerialParallelDeterminism is the engine's core contract: a parallel
// grid must produce bit-identical stats.Run numbers to a serial one, since
// every cell owns its core.Machine.
func TestSerialParallelDeterminism(t *testing.T) {
	ctx, spec := context.Background(), smallSpec("general", "modulo", "random")

	serial, err := Run(ctx, spec, job.PoolOptions{Parallelism: 1}, false)
	if err != nil {
		t.Fatal(err)
	}

	parallel, err := Run(ctx, spec, job.PoolOptions{Parallelism: runtime.NumCPU()}, false)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		for scheme, m := range serial.Runs {
			for bench, s := range m {
				p := parallel.Get(scheme, bench)
				if !reflect.DeepEqual(s, p) {
					t.Errorf("%s/%s diverged:\nserial   %+v\nparallel %+v", scheme, bench, s, p)
				}
			}
		}
		t.Fatal("serial and parallel grids differ")
	}
}

// TestRunValidatesSchemesUpFront checks that a typo'd scheme is rejected
// before any simulation runs, with the known names in the message.
func TestRunValidatesSchemesUpFront(t *testing.T) {
	calls := 0
	pool := job.PoolOptions{Runner: runnerFunc(func(ctx context.Context, j job.Job) (*stats.Run, error) {
		calls++
		return job.Direct{}.Run(ctx, j)
	})}
	ctx := context.Background()

	_, err := Run(ctx, smallSpec("general", "no-such-scheme"), pool, false)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") || !strings.Contains(err.Error(), "general") {
		t.Errorf("error does not name the offender and the known schemes: %v", err)
	}

	spec := smallSpec("general")
	spec.Benchmarks = []string{"go", "nope"}
	if _, err := Run(ctx, spec, pool, false); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown benchmark: err = %v, want one naming it", err)
	}
	if calls != 0 {
		t.Errorf("%d cells simulated before validation failed", calls)
	}
}

// TestSameValidationErrorAsJobLayer pins the dedup: the engine rejects bad
// inputs with exactly the job layer's error text, so dcasim, dcabench and
// library callers all see one message per mistake.
func TestSameValidationErrorAsJobLayer(t *testing.T) {
	ctx := context.Background()
	_, gridErr := Run(ctx, smallSpec("no-such-scheme"), job.PoolOptions{}, false)
	jobErr := job.ValidateScheme("no-such-scheme")
	if gridErr == nil || jobErr == nil || gridErr.Error() != jobErr.Error() {
		t.Errorf("grid error %q != job-layer error %q", gridErr, jobErr)
	}

	spec := smallSpec("general")
	spec.Clusters = 99
	_, gridErr = Run(ctx, spec, job.PoolOptions{}, false)
	jobErr = job.ValidateClusters(99)
	if gridErr == nil || jobErr == nil || gridErr.Error() != jobErr.Error() {
		t.Errorf("grid error %q != job-layer error %q", gridErr, jobErr)
	}
}

// TestEarlyCancellationOnError checks that the first failing cell stops the
// fleet: workers must not start (many) new cells after the failure.
func TestEarlyCancellationOnError(t *testing.T) {
	var (
		mu           sync.Mutex
		started      int
		afterFailure int
		failed       bool
	)
	boom := errors.New("boom")
	pool := job.PoolOptions{Parallelism: 2}
	pool.Runner = runnerFunc(func(_ context.Context, j job.Job) (*stats.Run, error) {
		mu.Lock()
		started++
		fail := !failed && started == 3
		if failed {
			afterFailure++
		}
		if fail {
			failed = true
		}
		mu.Unlock()
		if fail {
			return nil, boom
		}
		time.Sleep(time.Millisecond)
		return &stats.Run{Scheme: j.Scheme, Benchmark: j.Benchmark, Cycles: 1, Instructions: 1}, nil
	})

	// 3 schemes x 2 benchmarks + base x 2 = 8 cells; the 3rd started cell
	// fails, so with 2 workers at most one more cell may already have been
	// handed out before the cancellation lands.
	_, err := Run(context.Background(), smallSpec("general", "modulo", "random"), pool, false)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if afterFailure > pool.Parallelism {
		t.Errorf("%d cells started after the failure (parallelism %d) — cancellation is not early",
			afterFailure, pool.Parallelism)
	}
	if started >= 8 {
		t.Errorf("all %d cells ran despite the failure", started)
	}
}

// TestRunCancelled checks a cancelled context aborts the grid.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, smallSpec("general"), job.PoolOptions{}, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressCallback checks the per-cell hook: one call per cell,
// serialized, with sane running totals and no ETA before a second timing
// sample exists.
func TestProgressCallback(t *testing.T) {
	var (
		mu    sync.Mutex
		calls []job.Progress
	)
	pool := job.PoolOptions{Parallelism: runtime.NumCPU(), Progress: func(p job.Progress) {
		mu.Lock()
		calls = append(calls, p)
		mu.Unlock()
	}}
	res, err := Run(context.Background(), smallSpec("general"), pool, false)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * len(res.Spec.Benchmarks) // (base + general) x benchmarks
	if len(calls) != wantCells {
		t.Fatalf("progress called %d times, want %d", len(calls), wantCells)
	}
	for i, p := range calls {
		if p.Completed != i+1 {
			t.Errorf("call %d: Completed = %d, want %d", i, p.Completed, i+1)
		}
		if p.Total != wantCells {
			t.Errorf("call %d: Total = %d, want %d", i, p.Total, wantCells)
		}
		if p.Err != nil {
			t.Errorf("call %d: unexpected error %v", i, p.Err)
		}
		if res.Get(p.Job.Scheme, p.Job.Benchmark) == nil {
			t.Errorf("call %d: cell %s/%s not in the result", i, p.Job.Scheme, p.Job.Benchmark)
		}
	}
	// ETA guard: one completed cell is a sample taken while the pool was
	// still filling — no ETA may be extrapolated from it.
	if first := calls[0]; first.Remaining != 0 {
		t.Errorf("first Remaining = %v, want 0 (no timing data yet)", first.Remaining)
	}
	if last := calls[len(calls)-1]; last.Remaining != 0 {
		t.Errorf("final Remaining = %v, want 0", last.Remaining)
	}
}

// stubRunner returns a one-cycle record for every job without simulating.
var stubRunner = runnerFunc(func(_ context.Context, j job.Job) (*stats.Run, error) {
	return &stats.Run{Scheme: j.Scheme, Benchmark: j.Benchmark, Cycles: 1, Instructions: 1}, nil
})

// TestPlannedCellOrder checks the cell order of the jobs Run plans and
// keeps on the Result: base first, duplicate schemes and benchmarks
// dropped, input order preserved, each scheme crossed with the benchmarks
// in input order.
func TestPlannedCellOrder(t *testing.T) {
	spec := smallSpec("general", job.BaseScheme, "general", "modulo")
	spec.Benchmarks = []string{"go", "gcc", "go"}
	res, err := Run(context.Background(), spec, job.PoolOptions{Runner: stubRunner}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]string
	for _, j := range res.jobs {
		got = append(got, [2]string{j.Scheme, j.Benchmark})
	}
	want := [][2]string{
		{job.BaseScheme, "go"}, {job.BaseScheme, "gcc"},
		{"general", "go"}, {"general", "gcc"},
		{"modulo", "go"}, {"modulo", "gcc"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("planned cells = %v, want %v", got, want)
	}
	if b := res.Spec.Benchmarks; !reflect.DeepEqual(b, []string{"go", "gcc"}) {
		t.Errorf("Result.Spec.Benchmarks = %v, want the list that ran", b)
	}
}

// TestRepeatedBenchmarksRunOnce checks that a benchmark named twice is
// simulated, exported and averaged once: the grid equals the one that
// names it once, cell for cell and in its means and CSV.
func TestRepeatedBenchmarksRunOnce(t *testing.T) {
	ctx := context.Background()
	grid := func(benches ...string) *Result {
		spec := job.GridSpec{Schemes: []string{"general"}, Benchmarks: benches, Warmup: 2_000, Measure: 10_000}
		res, err := Run(ctx, spec, job.PoolOptions{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	repeated, once := grid("go", "go", "compress"), grid("go", "compress")
	if got, want := len(repeated.Export().Cells), len(once.Export().Cells); got != want || want != 4 {
		t.Errorf("repeated grid exports %d cells, deduplicated grid %d, want 4", got, want)
	}
	if got, want := repeated.MeanSpeedup("general"), once.MeanSpeedup("general"); got != want {
		t.Errorf("MeanSpeedup = %v with the repeat, %v without", got, want)
	}
	rt, rc := repeated.MeanComm("general")
	ot, oc := once.MeanComm("general")
	if rt != ot || rc != oc {
		t.Errorf("MeanComm = (%v, %v) with the repeat, (%v, %v) without", rt, rc, ot, oc)
	}
	var rcsv, ocsv strings.Builder
	if err := repeated.WriteCSV(&rcsv); err != nil {
		t.Fatal(err)
	}
	if err := once.WriteCSV(&ocsv); err != nil {
		t.Fatal(err)
	}
	if rcsv.String() != ocsv.String() {
		t.Errorf("CSV differs with the repeat:\n%s\nwithout:\n%s", rcsv.String(), ocsv.String())
	}
}

// TestLazyDefaultBenchmarks checks the lazy default: a spec without
// Benchmarks plans the full workload set at run time, and the Result
// echoes what actually ran.
func TestLazyDefaultBenchmarks(t *testing.T) {
	res, err := Run(context.Background(), job.GridSpec{Warmup: 500, Measure: 2_000}, job.PoolOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spec.Benchmarks) != 8 {
		t.Errorf("lazily planned %d benchmarks, want 8", len(res.Spec.Benchmarks))
	}
	for _, bench := range res.Spec.Benchmarks {
		if res.Get(job.BaseScheme, bench) == nil {
			t.Errorf("missing base run for lazily planned benchmark %s", bench)
		}
	}
}

// TestMeansGuardEmptyBenchmarks checks the zero-benchmark guards: a Result
// whose Spec carries no benchmarks must report zero means, not panic or
// divide by zero.
func TestMeansGuardEmptyBenchmarks(t *testing.T) {
	r := &Result{Runs: map[string]map[string]*stats.Run{}}
	if s := r.MeanSpeedup("general"); s != 0 {
		t.Errorf("MeanSpeedup on an empty spec = %f, want 0", s)
	}
	total, crit := r.MeanComm("general")
	if total != 0 || crit != 0 {
		t.Errorf("MeanComm on an empty spec = (%f, %f), want (0, 0)", total, crit)
	}
}
