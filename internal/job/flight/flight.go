// Package flight is the run layer's one coalescing primitive: concurrent
// calls for the same key share a single computation, and finished values
// can be kept for later calls. store.Cached shares an in-flight simulation
// among identical submissions, job.Checkpointed a measurement frontier
// among the runs of one warm key, and job.Traced an oracle recording among
// the cells of one (program, window).
package flight

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// Group holds the calls of one keyed computation. The zero value is ready
// to use and safe for concurrent use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
	kept  []string // keys of finished, kept calls, oldest first
}

// call is one key's computation; done closes once val and err are set.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the value for key. The first caller of a key leads: it runs
// fn itself, in its own caller's goroutine. Callers arriving while fn runs
// wait for and share its value and error; callers arriving after it
// finished get the kept value at once. A waiter whose ctx ends returns
// ctx.Err() while the leader carries on. The leader does not watch ctx:
// fn decides whether its work honors cancellation.
//
// keep bounds the finished values the group retains. A successful value
// is kept, and once more than keep are held the oldest is dropped; with
// keep 0 a key is forgotten as soon as its call returns, so Do only
// coalesces. Errors are shared with waiters but never kept; a panic in fn
// is returned as such an error, and the key is released.
func (g *Group[V]) Do(ctx context.Context, key string, keep int, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// A panic in fn becomes the call's error, so the call still finishes.
	func() {
		defer func() {
			if p := recover(); p != nil {
				c.err = fmt.Errorf("flight: computation panicked: %v", p)
			}
		}()
		c.val, c.err = fn()
	}()
	g.mu.Lock()
	if c.err != nil || keep <= 0 {
		delete(g.calls, key)
	} else {
		// Waiters on an evicted call hold its pointer and finish normally;
		// later callers run fn again.
		g.kept = append(g.kept, key)
		for len(g.kept) > keep {
			delete(g.calls, g.kept[0])
			g.kept = g.kept[1:]
		}
	}
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err
}

// Forget drops key's kept value, so the next Do for key runs fn again. A
// call still in flight is left alone: its waiters, and callers arriving
// before it returns, still share its value.
func (g *Group[V]) Forget(key string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := slices.Index(g.kept, key); i >= 0 {
		g.kept = slices.Delete(g.kept, i, i+1)
		delete(g.calls, key)
	}
}

// Len returns the number of keys the group holds, in flight or kept.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}
