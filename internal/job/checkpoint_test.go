package job

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// cpJobs builds a small spread of cells that exercises the warm-cache
// paths: both pseudo-schemes (naive steering, dedicated machines), the
// FIFO organization, balance schemes with trained tables, and a 4-cluster
// machine.
func cpJobs(t *testing.T) []Job {
	t.Helper()
	specs := []Spec{
		{Scheme: BaseScheme, Benchmark: "compress", Warmup: 2_000, Measure: 5_000},
		{Scheme: UBScheme, Benchmark: "go", Warmup: 2_000, Measure: 5_000},
		{Scheme: "fifo", Benchmark: "compress", Warmup: 2_000, Measure: 5_000},
		{Scheme: "general", Benchmark: "go", Warmup: 2_000, Measure: 5_000},
		{Scheme: "modulo", Benchmark: "li", Clusters: 4, Warmup: 2_000, Measure: 5_000},
	}
	jobs := make([]Job, 0, len(specs))
	for _, s := range specs {
		j, err := s.Plan()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// directDigest runs the job through the reference runner and digests the
// result.
func directDigest(t *testing.T, j Job) string {
	t.Helper()
	r, err := Direct{}.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("%s/%s: direct: %v", j.Scheme, j.Benchmark, err)
	}
	return ResultDigest(r)
}

// TestCheckpointedMatchesDirect is the runner-level bit-identity lock:
// results produced from a warm snapshot (and from the leader's own warm
// machine) must digest identically to Direct's. Each job runs twice
// through one shared Checkpointed — the first pass is the leader (warm +
// snapshot + own measure), the second replays measurement from the
// snapshot.
func TestCheckpointedMatchesDirect(t *testing.T) {
	c := &Checkpointed{}
	for _, j := range cpJobs(t) {
		want := directDigest(t, j)
		for pass := 1; pass <= 2; pass++ {
			r, err := c.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("%s/%s pass %d: %v", j.Scheme, j.Benchmark, pass, err)
			}
			if got := ResultDigest(r); got != want {
				t.Errorf("%s/%s pass %d: digest %s, direct %s", j.Scheme, j.Benchmark, pass, got, want)
			}
		}
	}
}

// TestCheckpointedWarmReuse is the point of the runner: jobs that differ
// only in the measurement budget share one warm key, so a measurement
// sweep warms once and every window still matches Direct bit for bit.
func TestCheckpointedWarmReuse(t *testing.T) {
	base, err := Spec{Scheme: "general", Benchmark: "compress", Warmup: 2_000, Measure: 3_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	c := &Checkpointed{}
	key := warmKey(base)
	for _, measure := range []uint64{3_000, 6_000, 1_000} {
		j := base
		j.Measure = measure
		if warmKey(j) != key {
			t.Fatalf("measure=%d: warm key split the sweep", measure)
		}
		want := directDigest(t, j)
		r, err := c.Run(context.Background(), j)
		if err != nil {
			t.Fatalf("measure=%d: %v", measure, err)
		}
		if got := ResultDigest(r); got != want {
			t.Errorf("measure=%d: digest %s, direct %s", measure, got, want)
		}
	}
	if n := c.warm.Len(); n != 1 {
		t.Errorf("sweep retained %d warm entries, want 1", n)
	}
}

// TestCheckpointedEviction runs a working set larger than the retention
// limit so every job's snapshot is evicted before its rerun; correctness
// (bit-identity) must survive the re-warms.
func TestCheckpointedEviction(t *testing.T) {
	c := &Checkpointed{limit: 1}
	jobs := cpJobs(t)[:3]
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = directDigest(t, j)
	}
	for pass := 1; pass <= 2; pass++ {
		for i, j := range jobs {
			r, err := c.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("%s/%s pass %d: %v", j.Scheme, j.Benchmark, pass, err)
			}
			if got := ResultDigest(r); got != want[i] {
				t.Errorf("%s/%s pass %d: digest %s, direct %s", j.Scheme, j.Benchmark, pass, got, want[i])
			}
		}
	}
	if n := c.warm.Len(); n != 1 {
		t.Errorf("retained %d warm entries, want 1", n)
	}
}

// TestCheckpointedConcurrent hammers one warm key from many goroutines:
// the warm simulation must coalesce onto a single leader and every caller
// must still get the Direct-identical result.
func TestCheckpointedConcurrent(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "go", Warmup: 2_000, Measure: 4_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := directDigest(t, j)
	c := &Checkpointed{}
	const workers = 8
	digests := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := c.Run(context.Background(), j)
			if err != nil {
				errs[w] = err
				return
			}
			digests[w] = ResultDigest(r)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if digests[w] != want {
			t.Errorf("worker %d: digest %s, direct %s", w, digests[w], want)
		}
	}
	if n := c.warm.Len(); n != 1 {
		t.Errorf("%d warm entries after coalesced runs, want 1", n)
	}
}

// TestCheckpointedFollowerHonorsContext: a follower waiting on a leader's
// warm phase returns when its own context ends, as store.Cached followers
// do, while the leader carries on.
func TestCheckpointedFollowerHonorsContext(t *testing.T) {
	j := cpJobs(t)[0]
	c := &Checkpointed{}
	entered, release := make(chan struct{}), make(chan struct{})
	releaseLeader := sync.OnceFunc(func() { close(release) })
	defer releaseLeader()
	// The leader's machine blocks in its oracle source until released.
	lctx := WithOracle(context.Background(), func() (core.Oracle, error) {
		close(entered)
		<-release
		return nil, nil
	})
	leader := make(chan error, 1)
	go func() {
		_, err := c.Run(lctx, j)
		leader <- err
	}()
	<-entered

	fctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	follower := make(chan error, 1)
	go func() {
		_, err := c.Run(fctx, j)
		follower <- err
	}()
	select {
	case err := <-follower:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("follower: %v, want its own deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower ignored its context while the leader warmed")
	}
	select {
	case err := <-leader:
		t.Fatalf("leader returned (%v) before its warm phase was released", err)
	default:
	}
	releaseLeader()
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestCheckpointedError pins error behaviour: an unknown benchmark fails
// every caller of the key (the error is deterministic, so sharing it
// preserves run-to-run equivalence with Direct).
func TestCheckpointedError(t *testing.T) {
	c := &Checkpointed{}
	j := Job{Scheme: "general", Benchmark: "nope", Measure: 100}
	for pass := 1; pass <= 2; pass++ {
		if _, err := c.Run(context.Background(), j); err == nil {
			t.Fatalf("pass %d: unknown benchmark succeeded", pass)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (&Checkpointed{}).Run(ctx, cpJobs(t)[0]); err == nil {
		t.Fatal("cancelled context accepted")
	}
}
