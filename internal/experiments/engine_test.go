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
	schemes := []string{"general", "modulo", "random"}

	serialOpts := smallOpts()
	serialOpts.Parallelism = 1
	serial, err := Run(schemes, serialOpts)
	if err != nil {
		t.Fatal(err)
	}

	parOpts := smallOpts()
	parOpts.Parallelism = runtime.NumCPU()
	parallel, err := Run(schemes, parOpts)
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
	opts := smallOpts()
	opts.Runner = runnerFunc(func(ctx context.Context, j job.Job) (*stats.Run, error) {
		calls++
		return job.Direct{}.Run(ctx, j)
	})

	_, err := Run([]string{"general", "no-such-scheme"}, opts)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") || !strings.Contains(err.Error(), "general") {
		t.Errorf("error does not name the offender and the known schemes: %v", err)
	}
	if calls != 0 {
		t.Errorf("%d cells simulated before validation failed", calls)
	}

	if _, err := Run([]string{"general"}, Options{Benchmarks: []string{"nope"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestSameValidationErrorAsJobLayer pins the dedup: the engine rejects bad
// inputs with exactly the job layer's error text, so dcasim, dcabench and
// library callers all see one message per mistake.
func TestSameValidationErrorAsJobLayer(t *testing.T) {
	_, gridErr := Run([]string{"no-such-scheme"}, smallOpts())
	jobErr := job.ValidateScheme("no-such-scheme")
	if gridErr == nil || jobErr == nil || gridErr.Error() != jobErr.Error() {
		t.Errorf("grid error %q != job-layer error %q", gridErr, jobErr)
	}

	opts := smallOpts()
	opts.Clusters = 99
	_, gridErr = Run([]string{"general"}, opts)
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
	opts := smallOpts()
	opts.Parallelism = 2
	opts.Runner = runnerFunc(func(_ context.Context, j job.Job) (*stats.Run, error) {
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
	_, err := Run([]string{"general", "modulo", "random"}, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if afterFailure > opts.Parallelism {
		t.Errorf("%d cells started after the failure (parallelism %d) — cancellation is not early",
			afterFailure, opts.Parallelism)
	}
	if started >= 8 {
		t.Errorf("all %d cells ran despite the failure", started)
	}
}

// TestRunContextCancelled checks a cancelled context aborts the grid.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, []string{"general"}, smallOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProgressCallback checks the per-cell hook: one call per cell,
// serialized, with sane running totals and no ETA before a second timing
// sample exists.
func TestProgressCallback(t *testing.T) {
	opts := smallOpts()
	opts.Parallelism = runtime.NumCPU()
	var (
		mu    sync.Mutex
		calls []job.Progress
	)
	opts.Progress = func(p job.Progress) {
		mu.Lock()
		calls = append(calls, p)
		mu.Unlock()
	}
	res, err := Run([]string{"general"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * len(opts.Benchmarks) // (base + general) x benchmarks
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

// TestPlannedCellOrder checks the cell order of the jobs RunContext plans
// and keeps on the Result: base first, duplicates dropped, input order
// preserved, each scheme crossed with the benchmarks in input order.
func TestPlannedCellOrder(t *testing.T) {
	opts := smallOpts()
	opts.Benchmarks = []string{"go", "gcc"}
	opts.Runner = runnerFunc(func(_ context.Context, j job.Job) (*stats.Run, error) {
		return &stats.Run{Scheme: j.Scheme, Benchmark: j.Benchmark, Cycles: 1, Instructions: 1}, nil
	})
	res, err := Run([]string{"general", BaseScheme, "general", "modulo"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]string
	for _, j := range res.jobs {
		got = append(got, [2]string{j.Scheme, j.Benchmark})
	}
	want := [][2]string{
		{BaseScheme, "go"}, {BaseScheme, "gcc"},
		{"general", "go"}, {"general", "gcc"},
		{"modulo", "go"}, {"modulo", "gcc"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("planned cells = %v, want %v", got, want)
	}
}

// TestLazyDefaultBenchmarks checks the lazy default: DefaultOptions leaves
// Benchmarks nil, and the grid plans the full workload set at run time
// (the Result echoes what actually ran).
func TestLazyDefaultBenchmarks(t *testing.T) {
	if b := DefaultOptions().Benchmarks; b != nil {
		t.Errorf("DefaultOptions().Benchmarks = %v, want nil (planned lazily)", b)
	}
	opts := DefaultOptions()
	opts.Warmup, opts.Measure = 500, 2_000
	res, err := Run(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Opts.Benchmarks) != 8 {
		t.Errorf("lazily planned %d benchmarks, want 8", len(res.Opts.Benchmarks))
	}
	for _, bench := range res.Opts.Benchmarks {
		if res.Get(BaseScheme, bench) == nil {
			t.Errorf("missing base run for lazily planned benchmark %s", bench)
		}
	}
}

// TestMeansGuardEmptyBenchmarks checks the zero-benchmark guards: a Result
// whose Options carry no benchmarks must report zero means, not panic or
// divide by zero.
func TestMeansGuardEmptyBenchmarks(t *testing.T) {
	r := &Result{Runs: map[string]map[string]*stats.Run{}}
	if s := r.MeanSpeedup("general"); s != 0 {
		t.Errorf("MeanSpeedup on empty options = %f, want 0", s)
	}
	total, crit := r.MeanComm("general")
	if total != 0 || crit != 0 {
		t.Errorf("MeanComm on empty options = (%f, %f), want (0, 0)", total, crit)
	}
}
