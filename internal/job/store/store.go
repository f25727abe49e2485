// Package store is the content-addressed result cache of the run layer:
// simulation results (stats.Run) keyed by job digest (job.Job.Key). Two
// backends — a bounded in-memory LRU and an on-disk JSON directory — are
// composable into a tiered cache, and Cached wraps any job.Runner with a
// store plus request coalescing, so repeated cells across invocations,
// examples and figures are simulated exactly once.
//
// Every backend stores the encoded JSON bytes and decodes a fresh copy on
// Get: a cache hit travels the same encode/decode path as a disk round
// trip, which is what makes the bit-identity guarantee (hit == cold run,
// proven by the experiments golden grid) literal rather than aspirational.
package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/stats"
)

// Store is a content-addressed result cache. Implementations must be safe
// for concurrent use.
type Store interface {
	// Get returns the cached result for key, decoding a fresh copy the
	// caller owns. The bool reports presence; the error is reserved for
	// backend failures (a corrupt disk entry), never for plain misses.
	// Cached treats read errors as misses and overwrites the entry, so a
	// damaged cache self-heals instead of failing its keys forever.
	Get(key string) (*stats.Run, bool, error)
	// Put caches the result under key, overwriting any previous entry.
	Put(key string, r *stats.Run) error
	// Len returns the number of cached entries.
	Len() int
}

// encode and decode fix the wire format every backend shares.
func encode(r *stats.Run) ([]byte, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return raw, nil
}

func decode(raw []byte) (*stats.Run, error) {
	r := new(stats.Run)
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("store: decode: %w", err)
	}
	return r, nil
}

// Memory is a bounded in-memory LRU store.
type Memory struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	key string
	raw []byte
}

// NewMemory returns an LRU store holding at most max entries; max <= 0
// means unbounded.
func NewMemory(max int) *Memory {
	return &Memory{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get implements Store, marking the entry most recently used.
func (m *Memory) Get(key string) (*stats.Run, bool, error) {
	raw, ok := m.get(key)
	if !ok {
		return nil, false, nil
	}
	r, err := decode(raw)
	if err != nil {
		return nil, false, err
	}
	return r, true, nil
}

// Put implements Store, evicting the least recently used entry when full.
func (m *Memory) Put(key string, r *stats.Run) error {
	raw, err := encode(r)
	if err != nil {
		return err
	}
	m.put(key, raw)
	return nil
}

// get returns the bytes under key and marks the entry most recently
// used. Stored bytes are never written again (put replaces the slice), so
// callers may read them after the lock is released.
func (m *Memory) get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).raw, true
}

// put stores raw under key as the most recently used entry, evicting the
// least recently used one when full. The LRU owns raw from here on.
func (m *Memory) put(key string, raw []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		el.Value.(*memEntry).raw = raw
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memEntry{key: key, raw: raw})
	if m.max > 0 && m.order.Len() > m.max {
		last := m.order.Back()
		m.order.Remove(last)
		delete(m.entries, last.Value.(*memEntry).key)
	}
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Tiered layers a fast store over a slow one: Get tries Fast first and
// promotes Slow hits into it; Put writes through to both. The standard
// composition is NewMemory(n) over NewDisk(dir) — an LRU of hot cells in
// front of the durable archive.
type Tiered struct {
	Fast Store
	Slow Store
}

// Get implements Store. Promotion is best-effort: a result already read
// correctly from the slow tier is served even when the fast tier cannot
// absorb it.
func (t Tiered) Get(key string) (*stats.Run, bool, error) {
	if r, ok, err := t.Fast.Get(key); ok || err != nil {
		return r, ok, err
	}
	r, ok, err := t.Slow.Get(key)
	if !ok || err != nil {
		return nil, false, err
	}
	_ = t.Fast.Put(key, r)
	return r, true, nil
}

// Put implements Store.
func (t Tiered) Put(key string, r *stats.Run) error {
	if err := t.Slow.Put(key, r); err != nil {
		return err
	}
	return t.Fast.Put(key, r)
}

// Len implements Store, reporting the durable tier's count.
func (t Tiered) Len() int { return t.Slow.Len() }
