package flight_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/job/flight"
)

// counter returns fn-style computations that count their runs and return
// the key's value.
type counter struct{ runs atomic.Int64 }

func (c *counter) fn(v int) func() (int, error) {
	return func() (int, error) {
		c.runs.Add(1)
		return v, nil
	}
}

// TestDoCoalescesConcurrentCallers: N callers of one key, all arriving
// while the first is still computing, make exactly one call and share
// its value.
func TestDoCoalescesConcurrentCallers(t *testing.T) {
	var g flight.Group[int]
	var runs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		if runs.Add(1) == 1 {
			close(entered)
		}
		<-release
		return 42, nil
	}
	const n = 16
	got := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got[0], errs[0] = g.Do(context.Background(), "k", 1, fn)
	}()
	<-entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = g.Do(context.Background(), "k", 1, fn)
		}(i)
	}
	// Give the followers time to reach their wait. The assertions hold
	// either way: a follower arriving after the leader gets the kept value.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if r := runs.Load(); r != 1 {
		t.Fatalf("%d calls for one key, want 1", r)
	}
	for i := range n {
		if errs[i] != nil || got[i] != 42 {
			t.Errorf("caller %d: (%d, %v), want (42, nil)", i, got[i], errs[i])
		}
	}
}

// TestDoSharesErrorWithWaiters: a waiter gets the leader's error, and the
// error is not kept — the next call runs again.
func TestDoSharesErrorWithWaiters(t *testing.T) {
	var g flight.Group[int]
	boom := errors.New("boom")
	var runs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		if runs.Add(1) == 1 {
			close(entered)
			<-release
		}
		return 0, boom
	}
	lead := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", 1, fn)
		lead <- err
	}()
	<-entered
	wait := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", 1, fn)
		wait <- err
	}()
	// As above; a waiter arriving late runs fn itself and gets boom too.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-lead; !errors.Is(err, boom) {
		t.Fatalf("leader: %v, want boom", err)
	}
	if err := <-wait; !errors.Is(err, boom) {
		t.Fatalf("waiter: %v, want boom", err)
	}
	if g.Len() != 0 {
		t.Fatalf("group holds %d keys after an error, want 0", g.Len())
	}
	before := runs.Load()
	if _, err := g.Do(context.Background(), "k", 1, fn); !errors.Is(err, boom) {
		t.Fatalf("retry: %v, want boom", err)
	}
	if runs.Load() != before+1 {
		t.Fatal("an error was kept: the retry did not run")
	}
}

// TestDoPanicIsAnError: a panic in fn reaches the leader and a waiter as
// an error, and the key is released, so the next call runs its fn.
func TestDoPanicIsAnError(t *testing.T) {
	var g flight.Group[int]
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fn := func() (int, error) {
		once.Do(func() {
			close(entered)
			<-release
		})
		panic("boom")
	}
	lead := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", 1, fn)
		lead <- err
	}()
	<-entered
	wait := make(chan error)
	go func() {
		_, err := g.Do(context.Background(), "k", 1, fn)
		wait <- err
	}()
	// As above; a waiter arriving late runs fn itself and panics too.
	time.Sleep(10 * time.Millisecond)
	close(release)
	for who, ch := range map[string]chan error{"leader": lead, "waiter": wait} {
		if err := <-ch; err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("%s: %v, want an error carrying the panic", who, err)
		}
	}
	if g.Len() != 0 {
		t.Fatalf("group holds %d keys after a panic, want 0", g.Len())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := g.Do(ctx, "k", 1, func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("next call: (%d, %v), want (7, nil)", v, err)
	}
}

// TestDoKeepZeroForgets: with nothing kept, a key is forgotten as soon as
// its call returns.
func TestDoKeepZeroForgets(t *testing.T) {
	var g flight.Group[int]
	var c counter
	for range 2 {
		if v, err := g.Do(context.Background(), "k", 0, c.fn(7)); v != 7 || err != nil {
			t.Fatalf("Do = (%d, %v), want (7, nil)", v, err)
		}
		if g.Len() != 0 {
			t.Fatalf("group holds %d keys with keep 0, want 0", g.Len())
		}
	}
	if c.runs.Load() != 2 {
		t.Fatalf("%d runs, want 2 (nothing kept between calls)", c.runs.Load())
	}
}

// TestDoEvictsOldestFirst: with two kept, a third key evicts the oldest.
func TestDoEvictsOldestFirst(t *testing.T) {
	var g flight.Group[int]
	var c counter
	do := func(key string) {
		t.Helper()
		if _, err := g.Do(context.Background(), key, 2, c.fn(len(key))); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []string{"a", "b", "c"} {
		do(k)
	}
	if g.Len() != 2 {
		t.Fatalf("group holds %d keys, want 2", g.Len())
	}
	do("c")
	do("b")
	if c.runs.Load() != 3 {
		t.Fatalf("%d runs after re-asking kept keys, want 3", c.runs.Load())
	}
	do("a") // evicted first, so it runs again — and evicts b
	if c.runs.Load() != 4 {
		t.Fatalf("%d runs, want the oldest key re-run (4)", c.runs.Load())
	}
	do("c")
	do("b")
	if c.runs.Load() != 5 {
		t.Fatalf("%d runs, want c kept and b re-run (5)", c.runs.Load())
	}
}

// TestForgetRunsAgain: Forget drops a kept value, so the next call runs.
func TestForgetRunsAgain(t *testing.T) {
	var g flight.Group[int]
	var c counter
	for range 2 {
		if _, err := g.Do(context.Background(), "k", 1, c.fn(1)); err != nil {
			t.Fatal(err)
		}
	}
	if c.runs.Load() != 1 {
		t.Fatalf("%d runs before Forget, want 1", c.runs.Load())
	}
	g.Forget("k")
	g.Forget("absent") // a no-op
	if g.Len() != 0 {
		t.Fatalf("group holds %d keys after Forget, want 0", g.Len())
	}
	if _, err := g.Do(context.Background(), "k", 1, c.fn(1)); err != nil {
		t.Fatal(err)
	}
	if c.runs.Load() != 2 {
		t.Fatalf("%d runs after Forget, want 2", c.runs.Load())
	}
}

// TestWaiterHonorsContext: a waiter whose context ends returns ctx.Err()
// at once, while the leader finishes and its value is kept. Forget leaves
// a call in flight alone.
func TestWaiterHonorsContext(t *testing.T) {
	var g flight.Group[int]
	entered, release := make(chan struct{}), make(chan struct{})
	lead := make(chan int)
	go func() {
		v, _ := g.Do(context.Background(), "k", 1, func() (int, error) {
			close(entered)
			<-release
			return 9, nil
		})
		lead <- v
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Do(ctx, "k", 1, func() (int, error) {
		t.Error("the waiter ran the computation")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: %v, want context.Canceled", err)
	}
	g.Forget("k")
	close(release)
	if v := <-lead; v != 9 {
		t.Fatalf("leader got %d, want 9", v)
	}
	if g.Len() != 1 {
		t.Fatalf("group holds %d keys, want the leader's value kept", g.Len())
	}
}
