package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
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
// results produced from a snapshot (and from the leader's own warm
// machine) must digest identically to Direct's. Each job runs twice
// through one shared Checkpointed — the first pass is the leader (warm +
// own measure, then its machine becomes the frontier), the second
// restores the frontier, which has already measured the window.
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
// only in the measurement budget share one warm key and every window still
// matches Direct bit for bit. The 3000 → 6000 sweep warms once (6000
// continues the 3000 frontier); the final 1000 is shorter than the
// frontier and warms again, outside the key's one retained entry.
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

// windowJob is the sweep tests' cell with the measurement window w.
func windowJob(t *testing.T, scheme, bench string, w uint64) Job {
	t.Helper()
	j, err := Spec{Scheme: scheme, Benchmark: bench, Warmup: 2_000, Measure: w}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestCheckpointedSweepOrders runs window sweeps in every order through a
// fresh Checkpointed each: ascending (each window continues the last
// frontier), descending (each window is shorter than the frontier and
// warms afresh), repeated (each restores a frontier that has measured
// it) and mixed. Every result must digest identically to Direct's.
func TestCheckpointedSweepOrders(t *testing.T) {
	orders := map[string][]uint64{
		"ascending":  {1_000, 3_000, 6_000},
		"descending": {6_000, 3_000, 1_000},
		"repeated":   {3_000, 3_000, 3_000},
		"mixed":      {3_000, 1_000, 6_000, 3_000, 6_000, 2_000, 8_000},
	}
	for _, cell := range [][2]string{{"general", "compress"}, {"fifo", "go"}} {
		want := map[uint64]string{}
		for name, order := range orders {
			c := &Checkpointed{}
			for i, w := range order {
				j := windowJob(t, cell[0], cell[1], w)
				if want[w] == "" {
					want[w] = directDigest(t, j)
				}
				r, err := c.Run(context.Background(), j)
				if err != nil {
					t.Fatalf("%s/%s %s step %d (window %d): %v", cell[0], cell[1], name, i, w, err)
				}
				if got := ResultDigest(r); got != want[w] {
					t.Errorf("%s/%s %s step %d (window %d): digest %s, direct %s", cell[0], cell[1], name, i, w, got, want[w])
				}
			}
		}
	}
}

// TestCheckpointedConcurrentWindows races mixed windows of two warm keys
// through one Checkpointed: leaders, waiters, restores of a frontier
// another goroutine is advancing and shorter windows falling back to a
// fresh warm-up all interleave, and every result must still digest
// identically to Direct's. make flake-sweep runs it under the race
// detector.
func TestCheckpointedConcurrentWindows(t *testing.T) {
	windows := []uint64{4_000, 1_000, 6_000, 2_000, 6_000, 1_000, 3_000, 4_000}
	var jobs []Job
	want := map[string]string{}
	for _, bench := range []string{"compress", "go"} {
		for _, w := range windows {
			j := windowJob(t, "general", bench, w)
			jobs = append(jobs, j)
			if _, ok := want[j.Key()]; !ok {
				want[j.Key()] = directDigest(t, j)
			}
		}
	}
	c := &Checkpointed{}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := c.Run(context.Background(), j)
			if err == nil && ResultDigest(r) != want[j.Key()] {
				err = fmt.Errorf("digest %s, direct %s", ResultDigest(r), want[j.Key()])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s window %d: %v", jobs[i].Benchmark, jobs[i].Measure, err)
		}
	}
	if n := c.warm.Len(); n != 2 {
		t.Errorf("%d warm entries, want one per warm key", n)
	}
}

// commitCounter is a probe that counts committed program instructions,
// across every machine that carries it.
type commitCounter struct{ n atomic.Uint64 }

func (*commitCounter) Fetch(uint64, *core.FetchInfo) {}
func (*commitCounter) Steer(*core.SteerDecision)     {}
func (*commitCounter) Cycle(*core.CycleSample)       {}
func (p *commitCounter) Event(_ uint64, ev core.Event, d *core.DynInst) {
	if ev == core.EvCommit && !d.IsCopy {
		p.n.Add(1)
	}
}

// TestCheckpointedSimulatesEachInstructionOnce is the saving itself: an
// ascending 1k → 4k → 12k sweep after a 3k warm-up simulates the warm-up
// once and each measured instruction once — 3k + 12k commits in all, give
// or take the last commit batch — where replaying every window from the
// warm snapshot would commit 3k + 1k + 4k + 12k. The probe source hands
// every machine built below one counter, and restored machines carry it.
func TestCheckpointedSimulatesEachInstructionOnce(t *testing.T) {
	const warmup = 3_000
	probe := &commitCounter{}
	ctx := WithProbe(context.Background(), func() core.Probe { return probe })
	c := &Checkpointed{}
	var retire uint64
	for _, w := range []uint64{1_000, 4_000, 12_000} {
		j, err := Spec{Scheme: "general", Benchmark: "go", Warmup: warmup, Measure: w}.Plan()
		if err != nil {
			t.Fatal(err)
		}
		retire = uint64(j.Config.RetireWidth)
		r, err := c.Run(ctx, j)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if got, want := ResultDigest(r), directDigest(t, j); got != want {
			t.Errorf("window %d: digest %s, direct %s", w, got, want)
		}
	}
	if n, want := probe.n.Load(), uint64(warmup+12_000); n < want || n >= want+retire {
		t.Errorf("the sweep committed %d instructions, want %d up to one commit batch more", n, want)
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

// TestCheckpointedWaiterSurvivesLeaderMeasureError: the warm leader
// measures inside the coalesced call, so its measurement can fail where a
// waiter's shorter or independently sourced run would not. The leader gets
// its own error; the waiter runs on its own and matches Direct. Here the
// leader fetches from a recording that ends shortly after its warm-up.
func TestCheckpointedWaiterSurvivesLeaderMeasureError(t *testing.T) {
	j := cpJobs(t)[0]
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(p)
	if err := rec.Extend(j.Warmup + core.FetchAheadBound(j.Config) + 100); err != nil {
		t.Fatal(err)
	}
	short := rec.Finalize(j.Warmup + 100)
	entered, release := make(chan struct{}), make(chan struct{})
	lctx := WithOracle(context.Background(), func() (core.Oracle, error) {
		close(entered)
		<-release
		return trace.NewReplayer(short, p)
	})
	c := &Checkpointed{}
	leader := make(chan error, 1)
	go func() {
		_, err := c.Run(lctx, j)
		leader <- err
	}()
	<-entered
	waiter := make(chan string, 1)
	go func() {
		r, err := c.Run(context.Background(), j)
		if err != nil {
			t.Errorf("waiter: %v", err)
			waiter <- ""
			return
		}
		waiter <- ResultDigest(r)
	}()
	// Give the waiter time to join the leader's call. The assertions hold
	// either way: a waiter arriving after the leader failed leads itself.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-leader; !errors.Is(err, core.ErrOracleExhausted) {
		t.Fatalf("leader: %v, want its oracle's exhaustion", err)
	}
	if got, want := <-waiter, directDigest(t, j); got != want {
		t.Errorf("waiter: digest %s, direct %s", got, want)
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
