package store

import (
	"context"
	"sync/atomic"

	"repro/internal/job"
	"repro/internal/job/flight"
	"repro/internal/stats"
)

// Metrics is a point-in-time snapshot of a Cached runner's traffic.
type Metrics struct {
	// Hits counts runs served from the store; Misses counts runs that
	// reached the underlying Runner (i.e. actual simulations).
	Hits   uint64
	Misses uint64
	// Coalesced counts runs that neither hit the store nor simulated:
	// they arrived while an identical job was in flight and shared its
	// result.
	Coalesced uint64
}

// Cached wraps a job.Runner with a content-addressed Store and request
// coalescing: a Run first consults the store under the job's digest, and
// N concurrent submissions of the same key trigger exactly one
// simulation — the rest wait for the leader and share its result. This is
// the engine behind cmd/dcaserve and any grid run that injects a store.
type Cached struct {
	store  Store
	next   job.Runner
	hits   atomic.Uint64
	misses atomic.Uint64
	coal   atomic.Uint64
	flight flight.Group[*stats.Run] // in-flight runs only: the store keeps results
}

// NewCached returns a Cached runner over s; next nil means job.Direct{}.
func NewCached(s Store, next job.Runner) *Cached {
	if next == nil {
		next = job.Direct{}
	}
	return &Cached{store: s, next: next}
}

// Metrics returns the traffic counters so far.
func (c *Cached) Metrics() Metrics {
	return Metrics{Hits: c.hits.Load(), Misses: c.misses.Load(), Coalesced: c.coal.Load()}
}

// Outcome reports how a RunWithOutcome submission was satisfied. It is
// meaningful only when the returned error is nil.
type Outcome int

const (
	// OutcomeHit means the result was served from the store.
	OutcomeHit Outcome = iota
	// OutcomeSimulated means this call ran the simulation.
	OutcomeSimulated
	// OutcomeCoalesced means an identical submission was already in
	// flight and this call shared its result.
	OutcomeCoalesced
)

// Run implements job.Runner. Results handed to coalesced followers are
// shared — treat them as read-only, as with any cached value.
func (c *Cached) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	r, _, err := c.RunWithOutcome(ctx, j)
	return r, err
}

// RunWithOutcome is Run plus how the submission was satisfied (cmd/dcaserve
// reports it to clients). Store I/O happens outside the coalescing group's
// lock, so concurrent submissions never queue behind a disk read.
func (c *Cached) RunWithOutcome(ctx context.Context, j job.Job) (*stats.Run, Outcome, error) {
	key := j.Key()
	// A store read error (e.g. a corrupt disk entry) is treated as a
	// miss, not a failure: re-simulating is always possible, and the Put
	// below overwrites the bad entry — the cache self-heals instead of
	// permanently poisoning the key.
	if r, ok, err := c.store.Get(key); err == nil && ok {
		c.hits.Add(1)
		return r, OutcomeHit, nil
	}

	// Only the leader runs the function below, so a call that never sets
	// out shared an identical submission's result.
	out := OutcomeCoalesced
	r, err := c.flight.Do(ctx, key, 0, func() (*stats.Run, error) {
		// Now that we lead, re-check the store: a previous leader may have
		// finished (Put + deregistered) between our miss above and our
		// registration, and simulating here would redo a cached cell. Any
		// followers attached meanwhile share whatever this finds; read
		// errors again degrade to a miss.
		if r, ok, err := c.store.Get(key); err == nil && ok {
			c.hits.Add(1)
			out = OutcomeHit
			return r, nil
		}
		// The leader simulates detached from its own caller's context: its
		// result is shared with coalesced followers (and the store), so one
		// caller hanging up must not poison everyone else with its
		// cancellation. Followers still honor their own contexts while
		// waiting, and batch runners gate on the context before
		// dispatching.
		c.misses.Add(1)
		out = OutcomeSimulated
		r, err := c.next.Run(context.WithoutCancel(ctx), j)
		if err == nil {
			// Caching is best-effort, like the read path: a full disk or
			// broken backend must not discard a successfully computed
			// result (it only costs the reuse).
			_ = c.store.Put(key, r)
		}
		return r, err
	})
	if out == OutcomeCoalesced && err == nil {
		c.coal.Add(1)
	}
	return r, out, err
}
