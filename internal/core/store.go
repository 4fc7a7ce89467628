package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// TraceKey identifies one deterministic specification-model run: a named
// algorithm executed at input size N.  Because the paper's algorithms are
// static — their communication depends only on the input size, never on
// input values — a trace computed once for a key is valid for every
// consumer, which is what makes keyed memoization sound.  The engine is
// deliberately not part of the key: every engine produces the same trace
// (the cross-engine equivalence tests enforce it), so a trace computed on
// one engine serves callers of every other.
type TraceKey struct {
	// Algorithm is the registry name of the algorithm ("matmul", "fft", ...).
	Algorithm string
	// N is the input size the algorithm was specified at.
	N int
}

// String renders the key in its canonical "algorithm/n=N" form, used as
// the memo-store key and as a stable file-name stem for archived traces.
func (k TraceKey) String() string {
	return fmt.Sprintf("%s/n=%d", k.Algorithm, k.N)
}

// StoreStats reports the cumulative effectiveness of a Store.
type StoreStats struct {
	// Hits counts Get calls served from a completed or in-flight entry.
	Hits int64
	// Misses counts Get calls that had to compute the value.
	Misses int64
	// Evictions counts completed entries discarded by the LRU bound.
	Evictions int64
}

// HitRate returns Hits/(Hits+Misses), or 0 when the store is unused.
func (s StoreStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is a keyed, concurrency-safe, single-flight memo store with an
// optional LRU capacity bound.  The first Get for a key computes the
// value; concurrent and later Gets for the same key wait for (or reuse)
// that single computation.  Errors are cached alongside values: a failed
// computation is not retried, so every caller of a key observes the same
// outcome — a property the experiment suite relies on for
// schedule-independent output.  (Callers that must not memoize an error —
// e.g. a cancelled context — drop it with ForgetIf instead.)
//
// A bounded store (NewBoundedStore) keeps at most capacity completed
// entries, discarding the least recently used beyond that; a long-running
// process can therefore share one store across its whole lifetime without
// unbounded growth.  In-flight computations are never evicted — a waiter
// always observes the computation it joined — so the resident entry count
// may transiently exceed the capacity by the number of computations in
// flight.
type Store[V any] struct {
	mu        sync.Mutex
	capacity  int // 0 = unbounded
	entries   map[string]*storeEntry[V]
	lru       *list.List // completed entries; front = most recently used
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type storeEntry[V any] struct {
	key  string
	done chan struct{} // closed when val/err are set
	val  V
	err  error
	elem *list.Element // non-nil once completed and resident
}

// NewStore returns an empty unbounded store.
func NewStore[V any]() *Store[V] {
	return NewBoundedStore[V](0)
}

// NewBoundedStore returns an empty store keeping at most capacity
// completed entries under LRU eviction; capacity <= 0 means unbounded.
func NewBoundedStore[V any](capacity int) *Store[V] {
	if capacity < 0 {
		capacity = 0
	}
	return &Store[V]{
		capacity: capacity,
		entries:  map[string]*storeEntry[V]{},
		lru:      list.New(),
	}
}

// Capacity returns the LRU bound (0 = unbounded).
func (s *Store[V]) Capacity() int { return s.capacity }

// Get returns the value for key, computing it with compute on the first
// call.  compute runs at most once per key across all goroutines; callers
// that find the computation in flight block until it completes.
func (s *Store[V]) Get(key string, compute func() (V, error)) (V, error) {
	return s.get(key, compute, false)
}

// Fill is Get for a value computed elsewhere, such as a document another
// node owns.  Concurrent Fills and Gets of one key share one computation
// as with Get, but Fill counts neither a hit nor a miss, and an error
// from its computation reaches the callers that shared it and is then
// dropped: it describes the attempt, not the key.  A value enters the
// store under the LRU bound as with Get.
func (s *Store[V]) Fill(key string, compute func() (V, error)) (V, error) {
	return s.get(key, compute, true)
}

func (s *Store[V]) get(key string, compute func() (V, error), fill bool) (V, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		if !fill {
			s.hits.Add(1)
		}
		<-e.done
		return e.val, e.err
	}
	e = &storeEntry[V]{key: key, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	if !fill {
		s.misses.Add(1)
	}
	e.val, e.err = compute()
	close(e.done)
	s.mu.Lock()
	// The entry enters the LRU order only now that it is completed.  An
	// in-flight entry is never removed (eviction and ForgetIf touch
	// completed entries only), so it is still the map's entry for key.
	if fill && e.err != nil {
		delete(s.entries, key)
	} else {
		e.elem = s.lru.PushFront(e)
		s.evictLocked()
	}
	s.mu.Unlock()
	return e.val, e.err
}

// Peek returns the completed value for key without ever computing.  ok
// reports whether a completed entry exists; in-flight computations report
// !ok (Peek never blocks).  A successful Peek counts as a hit and
// refreshes the entry's LRU position; a failed one is not counted as a
// miss (nothing was computed).
func (s *Store[V]) Peek(key string) (val V, err error, ok bool) {
	s.mu.Lock()
	e, exists := s.entries[key]
	if !exists || e.elem == nil {
		s.mu.Unlock()
		var zero V
		return zero, nil, false
	}
	s.lru.MoveToFront(e.elem)
	s.mu.Unlock()
	s.hits.Add(1)
	return e.val, e.err, true
}

// ForgetIf removes key only when its entry is completed and its outcome
// satisfies pred.  In-flight computations and entries that fail pred are
// left untouched, so a caller reacting to a stale outcome (e.g. a
// cancellation error it received earlier) can never evict the fresh
// entry that replaced it, even when several waiters of one failed
// computation all try to drop it.
func (s *Store[V]) ForgetIf(key string, pred func(val V, err error) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.elem == nil {
		return false
	}
	if !pred(e.val, e.err) {
		return false
	}
	s.lru.Remove(e.elem)
	e.elem = nil
	delete(s.entries, key)
	return true
}

// evictLocked discards least-recently-used completed entries beyond the
// capacity.  Called with s.mu held.
func (s *Store[V]) evictLocked() {
	if s.capacity <= 0 {
		return
	}
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		victim := back.Value.(*storeEntry[V])
		s.lru.Remove(back)
		victim.elem = nil
		delete(s.entries, victim.key)
		s.evictions.Add(1)
	}
}

// Len returns the number of keyed entries (completed or in flight).
func (s *Store[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats returns the cumulative hit/miss/eviction counters.
func (s *Store[V]) Stats() StoreStats {
	return StoreStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.evictions.Load()}
}
