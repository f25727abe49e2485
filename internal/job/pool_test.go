package job

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// stubRunner returns a synthetic result derived from the job so tests can
// verify positional mapping without simulating.
type stubRunner struct {
	mu    sync.Mutex
	calls int
	fail  map[string]error
	panic string // a benchmark whose run panics
}

func (s *stubRunner) Run(_ context.Context, j Job) (*stats.Run, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if err := s.fail[j.Benchmark]; err != nil {
		return nil, err
	}
	if j.Benchmark == s.panic {
		panic("stub runner panic")
	}
	return &stats.Run{Scheme: j.Scheme, Benchmark: j.Benchmark, Cycles: j.Measure, Instructions: 1}, nil
}

func testJobs(t *testing.T, benches ...string) []Job {
	t.Helper()
	jobs, err := GridSpec{Schemes: []string{"general"}, Benchmarks: benches, Warmup: 1, Measure: 1}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestRunAllPositional checks runs[i] belongs to jobs[i] at every pool
// size.
func TestRunAllPositional(t *testing.T) {
	jobs := testJobs(t, "go", "gcc", "compress", "li", "perl")
	for _, par := range []int{1, 2, 8} {
		runs, err := RunAll(context.Background(), jobs, PoolOptions{Parallelism: par, Runner: &stubRunner{}})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range jobs {
			if runs[i] == nil || runs[i].Benchmark != j.Benchmark {
				t.Errorf("par=%d: runs[%d] = %+v, want benchmark %s", par, i, runs[i], j.Benchmark)
			}
		}
	}
}

// TestRunAllFirstError checks the first failure is returned and cancels
// the batch.
func TestRunAllFirstError(t *testing.T) {
	boom := errors.New("boom")
	jobs := testJobs(t, "go", "gcc", "compress", "li", "perl")
	st := &stubRunner{fail: map[string]error{"gcc": boom}}
	if _, err := RunAll(context.Background(), jobs, PoolOptions{Parallelism: 1, Runner: st}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st.calls >= len(jobs) {
		t.Errorf("all %d jobs ran despite the failure", st.calls)
	}
}

// TestRunAllPanicIsAnError: a runner that panics fails the batch with an
// error, and the process lives on.
func TestRunAllPanicIsAnError(t *testing.T) {
	jobs := testJobs(t, "go", "gcc", "compress")
	_, err := RunAll(context.Background(), jobs, PoolOptions{Parallelism: 2, Runner: &stubRunner{panic: "gcc"}})
	if err == nil || !strings.Contains(err.Error(), "stub runner panic") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
}

// TestRunAllETAGuard checks the first completed job reports no ETA and
// later ones do (when work remains).
func TestRunAllETAGuard(t *testing.T) {
	jobs := testJobs(t, "go", "gcc", "compress", "li")
	var mu sync.Mutex
	var got []Progress
	_, err := RunAll(context.Background(), jobs, PoolOptions{
		Parallelism: 1,
		Runner:      &stubRunner{},
		Progress: func(p Progress) {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("progress called %d times, want %d", len(got), len(jobs))
	}
	if got[0].Remaining != 0 {
		t.Errorf("first Remaining = %v, want 0 (single sample extrapolates garbage)", got[0].Remaining)
	}
	if last := got[len(got)-1]; last.Remaining != 0 {
		t.Errorf("final Remaining = %v, want 0", last.Remaining)
	}
}

// TestWorkers pins the pool-size rule.
func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ par, n, want int }{
		{par: 4, n: 10, want: 4},
		{par: 4, n: 2, want: 2},
		{par: 0, n: 1, want: 1},
	} {
		if got := Workers(tc.par, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.par, tc.n, got, tc.want)
		}
	}
	if got := Workers(0, 1<<30); got <= 0 {
		t.Errorf("Workers defaulted to %d", got)
	}
}

// TestDirectContextCancelled checks Direct refuses to start cancelled
// work.
func TestDirectContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j, err := Spec{Scheme: "general", Benchmark: "go", Measure: 1}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Direct{}).Run(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDirectMatchesSpec smoke-checks the executor end to end on a tiny
// job and that distinct windows produce distinct digests.
func TestDirectMatchesSpec(t *testing.T) {
	a, err := Spec{Scheme: "modulo", Benchmark: "go", Warmup: 100, Measure: 1_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	b := a
	b.Measure = 2_000
	if a.Key() == b.Key() {
		t.Error("different windows share a digest")
	}
	r, err := Direct{}.Run(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != "modulo" || r.Benchmark != "go" || r.Instructions == 0 {
		t.Errorf("unexpected result %+v", r)
	}
}
