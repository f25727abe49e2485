package job

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// memBlobs is the minimal in-process BlobStore for these tests (the store
// backends are exercised by their own package; here only the protocol
// matters).
type memBlobs struct {
	mu    sync.Mutex
	blobs map[string][]byte
	puts  int
}

func (m *memBlobs) GetBlob(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	raw, ok := m.blobs[key]
	return raw, ok, nil
}

func (m *memBlobs) PutBlob(key string, raw []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blobs == nil {
		m.blobs = make(map[string][]byte)
	}
	m.blobs[key] = raw
	m.puts++
	return nil
}

// TestTracedMatchesDirect is the runner-level bit-identity lock for the
// trace layer: every cell run from a replayed recording must digest
// identically to a live Direct run, across both pseudo-schemes, trained
// balance schemes, the FIFO machine and a 4-cluster fabric.
func TestTracedMatchesDirect(t *testing.T) {
	c := &Traced{}
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
	if m := c.Metrics(); m.Extensions != 0 || m.LiveFallbacks != 0 {
		t.Errorf("metrics %+v: a replay outran its recording", m)
	}
}

// TestTracedRecordsOncePerProgramWindow is the amortization contract: a
// grid of cells over one (program, window) pair triggers exactly one
// recording no matter how many schemes and cluster counts consume it,
// and a new window records again.
func TestTracedRecordsOncePerProgramWindow(t *testing.T) {
	c := &Traced{}
	var jobs []Job
	for _, scheme := range []string{BaseScheme, UBScheme, "fifo", "general", "modulo"} {
		for _, clusters := range []int{2, 4} {
			if (scheme == BaseScheme || scheme == UBScheme) && clusters != 2 {
				continue
			}
			j, err := Spec{Scheme: scheme, Benchmark: "compress", Clusters: clusters,
				Warmup: 2_000, Measure: 5_000}.Plan()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		if _, err := c.Run(context.Background(), j); err != nil {
			t.Fatalf("%s/%d: %v", j.Scheme, j.Config.NumClusters(), err)
		}
	}
	m := c.Metrics()
	if m.Recordings != 1 {
		t.Fatalf("%d recordings for %d cells of one (program, window), want exactly 1", m.Recordings, len(jobs))
	}
	if m.Replays != uint64(len(jobs)) {
		t.Fatalf("%d replays for %d cells, want one each", m.Replays, len(jobs))
	}

	// A different measurement window is a different trace key.
	j := jobs[0]
	j.Measure += 1_000
	if _, err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Recordings != 2 {
		t.Fatalf("%d recordings after a second window, want 2", m.Recordings)
	}
}

// TestTracedConcurrentCoalesces hammers one trace key from many
// goroutines: the recording must coalesce onto a single leader.
func TestTracedConcurrentCoalesces(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "go", Warmup: 2_000, Measure: 4_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := directDigest(t, j)
	c := &Traced{}
	const workers = 8
	errs := make([]error, workers)
	digests := make([]string, workers)
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
	if m := c.Metrics(); m.Recordings != 1 {
		t.Errorf("%d recordings after coalesced runs, want 1", m.Recordings)
	}
}

// TestTracedBlobStoreWarm: a second process (modelled by a fresh Traced
// over the same blob store) serves its recording from the store instead
// of re-recording, with identical results.
func TestTracedBlobStoreWarm(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "compress", Warmup: 2_000, Measure: 5_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := directDigest(t, j)
	blobs := &memBlobs{}

	cold := &Traced{Blobs: blobs}
	r, err := cold.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if got := ResultDigest(r); got != want {
		t.Errorf("cold: digest %s, direct %s", got, want)
	}
	if m := cold.Metrics(); m.Recordings != 1 || m.BlobHits != 0 {
		t.Fatalf("cold metrics %+v, want 1 recording and 0 blob hits", m)
	}
	if blobs.puts != 1 {
		t.Fatalf("%d blobs persisted, want 1", blobs.puts)
	}

	warm := &Traced{Blobs: blobs}
	r, err = warm.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if got := ResultDigest(r); got != want {
		t.Errorf("store-warm: digest %s, direct %s", got, want)
	}
	if m := warm.Metrics(); m.Recordings != 0 || m.BlobHits != 1 {
		t.Fatalf("store-warm metrics %+v, want 0 recordings and 1 blob hit", m)
	}
}

// TestTracedCorruptBlobSelfHeals: a damaged cached trace is re-recorded,
// not trusted and not fatal — mirroring the store's read-errors-as-misses
// rule.
func TestTracedCorruptBlobSelfHeals(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "compress", Warmup: 2_000, Measure: 5_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	key := trace.Key(p.Digest(), j.Warmup+j.Measure)
	blobs := &memBlobs{blobs: map[string][]byte{key: []byte("not a trace")}}

	c := &Traced{Blobs: blobs}
	r, err := c.Run(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ResultDigest(r), directDigest(t, j); got != want {
		t.Errorf("digest %s, direct %s", got, want)
	}
	if m := c.Metrics(); m.Recordings != 1 || m.BlobHits != 0 {
		t.Fatalf("metrics %+v, want the corrupt blob re-recorded", m)
	}
	blobs.mu.Lock()
	healed := string(blobs.blobs[key]) != "not a trace"
	blobs.mu.Unlock()
	if !healed {
		t.Error("corrupt blob left in place")
	}
}

// TestTracedShortBlobReRecorded seeds the blob store with a deliberately
// short recording under the correct key: Traced must see that it cannot
// cover window + core.FetchAheadBound and re-record before the run, never
// start a replay that would run dry. The result is bit-identical to
// Direct, and the longer recording replaces the short blob.
func TestTracedShortBlobReRecorded(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "compress", Warmup: 2_000, Measure: 5_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Load(j.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	window := j.Warmup + j.Measure
	rec := trace.NewRecorder(p)
	if err := rec.Extend(window / 4); err != nil {
		t.Fatal(err)
	}
	short := rec.Finalize(window)
	if short.Halted {
		t.Fatal("short recording unexpectedly reached HALT")
	}
	key := trace.Key(p.Digest(), window)
	blobs := &memBlobs{blobs: map[string][]byte{key: short.Encode()}}

	c := &Traced{Blobs: blobs}
	r, err := c.Run(context.Background(), j)
	if err != nil {
		t.Fatalf("short blob should be re-recorded up front, got %v", err)
	}
	if got, want := ResultDigest(r), directDigest(t, j); got != want {
		t.Errorf("re-recorded replay digest %s, direct %s", got, want)
	}
	m := c.Metrics()
	if m.BlobHits != 0 || m.Recordings != 1 || m.Extensions != 0 || m.LiveFallbacks != 0 {
		t.Fatalf("metrics %+v, want the short blob refused and one recording", m)
	}

	// The recording covers every planned machine, and replaced the short
	// blob; a later cell replays it with no further recording work.
	blobs.mu.Lock()
	long, err := trace.Decode(blobs.blobs[key])
	blobs.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if long.Steps != window+planFetchAhead {
		t.Fatalf("blob holds %d steps, want window %d + %d", long.Steps, window, planFetchAhead)
	}
	if _, err := c.Run(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if after := c.Metrics(); after.Recordings != 1 {
		t.Fatalf("second run re-recorded: %+v", after)
	}
}

// TestTracedDeepFrontEndReRecords: a hand-built machine whose front end
// can run further ahead than any planned machine's finds the cached
// recording too short and re-records before its run, bit-identical to
// Direct; planned cells keep sharing the longer recording.
func TestTracedDeepFrontEndReRecords(t *testing.T) {
	j, err := Spec{Scheme: "general", Benchmark: "vortex", Clusters: 8, Warmup: 2_000, Measure: 3_000}.Plan()
	if err != nil {
		t.Fatal(err)
	}
	deep := j
	deep.Config = config.ClusteredN(8)
	deep.Config.FetchQueue = config.MaxFetchQueue
	if core.FetchAheadBound(deep.Config) <= planFetchAhead {
		t.Fatal("hand-built machine does not outreach the planned ones")
	}
	c := &Traced{}
	for i, jj := range []Job{j, deep, j} {
		r, err := c.Run(context.Background(), jj)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got, want := ResultDigest(r), directDigest(t, jj); got != want {
			t.Errorf("run %d: digest %s, direct %s", i, got, want)
		}
	}
	if m := c.Metrics(); m.Recordings != 2 || m.Extensions != 0 || m.LiveFallbacks != 0 {
		t.Fatalf("metrics %+v, want one recording per front-end reach", m)
	}
}

// TestTracedComposesWithCheckpointed runs the trace layer over the warm
// snapshot layer: replay cursors are cloneable, so the composition warms
// once per warm key and still digests identically to Direct.
func TestTracedComposesWithCheckpointed(t *testing.T) {
	cp := &Checkpointed{}
	c := &Traced{Next: cp}
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
	for _, j := range cpJobs(t) {
		snap, err := cp.warm.Do(context.Background(), warmKey(j), defaultWarmLimit, func() (*core.Checkpoint, error) {
			return nil, fmt.Errorf("warm key of %s/%s not kept", j.Scheme, j.Benchmark)
		})
		if err != nil || snap == nil {
			t.Errorf("%s/%s: replayed machine was not snapshotted (%v)", j.Scheme, j.Benchmark, err)
		}
	}
}

// TestTracedCheckpointedWindowSweep is the measurement-window sweep shape:
// cells that differ only in Measure share one warm snapshot, whose replay
// cursor runs over the shortest window's recording. Followers measuring
// further must continue on their own, longer recording (a restored
// machine resumes the stream) and stay bit-identical to Direct.
func TestTracedCheckpointedWindowSweep(t *testing.T) {
	cp := &Checkpointed{}
	c := &Traced{Next: cp}
	for _, bench := range []string{"vortex", "go"} {
		for _, measure := range []uint64{1_000, 4_000, 12_000} {
			j, err := Spec{Scheme: "general", Benchmark: bench, Warmup: 3_000, Measure: measure}.Plan()
			if err != nil {
				t.Fatal(err)
			}
			r, err := c.Run(context.Background(), j)
			if err != nil {
				t.Fatalf("%s measure %d: %v", bench, measure, err)
			}
			if got, want := ResultDigest(r), directDigest(t, j); got != want {
				t.Errorf("%s measure %d: digest %s, direct %s", bench, measure, got, want)
			}
		}
	}
	if n := cp.warm.Len(); n != 2 {
		t.Errorf("%d warm snapshots, want one per benchmark", n)
	}
	if m := c.Metrics(); m.Recordings != 6 || m.Extensions != 0 || m.LiveFallbacks != 0 {
		t.Errorf("metrics %+v, want one recording per (benchmark, window) and nothing else", m)
	}
}

// TestTracedErrors pins the edges: unknown benchmarks fail, cancelled
// contexts are refused, and a zero-window job runs live (nothing bounded
// to record).
func TestTracedErrors(t *testing.T) {
	c := &Traced{}
	if _, err := c.Run(context.Background(), Job{Scheme: "general", Benchmark: "nope", Measure: 100}); err == nil {
		t.Fatal("unknown benchmark succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, cpJobs(t)[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
}
