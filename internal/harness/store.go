package harness

import (
	"context"
	"errors"
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/obs"
)

// TraceStore memoizes registry-algorithm runs by (algorithm, n, record).
// The paper's algorithms are static — their communication depends only
// on the input size — so one execution per key serves every experiment
// that needs the trace: E1/E2/E8/E9/E10/E12/E13 all fold the same
// handful of traces, and without the store each recomputed them.  The
// engine is not part of the key: every engine produces the same trace,
// so whichever engine computes a key first serves callers of the others.
// The store is safe for concurrent use and computations are
// single-flight (core.Store), which also keeps the suite's hit/miss
// counters schedule-independent.
//
// A bounded store (NewBoundedTraceStore) additionally evicts the least
// recently used runs beyond a capacity, which is what lets a long-running
// process — nobld in particular — keep one store for its whole lifetime.
// A spilling store (NewSpillingTraceStore) replaces count eviction with a
// memory budget: runs beyond the budget move to disk and page back in on
// demand instead of being recomputed.
type TraceStore struct {
	store *core.Store[alg.Result]
	spill *spiller // nil unless built by NewSpillingTraceStore
	probe *obs.Probe
}

// SetProbe attaches a probe: every Get records a hit instant or wraps
// its miss computation in a "trace-compute" span, and computed runs
// inherit the probe so their engine supersteps appear in the same
// timeline.  Call before serving traffic; nil detaches.
func (ts *TraceStore) SetProbe(p *obs.Probe) { ts.probe = p }

// NewTraceStore returns an empty unbounded store.
func NewTraceStore() *TraceStore {
	return NewBoundedTraceStore(0)
}

// NewBoundedTraceStore returns an empty store retaining at most capacity
// completed runs under LRU eviction (0 = unbounded).
func NewBoundedTraceStore(capacity int) *TraceStore {
	return &TraceStore{store: core.NewBoundedStore[alg.Result](capacity)}
}

// Get returns the memoized run of the named registry algorithm at size
// n, executing it on the given engine (nil: the BlockEngine) on first
// use.  ctx bounds that execution; because cancellation errors would
// otherwise be memoized for every later caller of the key, a run failing
// with ctx's error is forgotten instead of cached.
func (ts *TraceStore) Get(ctx context.Context, eng core.Engine, name string, n int) (alg.Result, error) {
	return ts.get(ctx, eng, name, n, false)
}

// GetRecorded is Get for message-pair-recorded runs (the form the cache
// simulator consumes).  Recorded and unrecorded runs of the same
// algorithm are distinct store entries: their traces differ in payload,
// and a consumer of a recorded trace must never receive the lighter one.
func (ts *TraceStore) GetRecorded(ctx context.Context, eng core.Engine, name string, n int) (alg.Result, error) {
	return ts.get(ctx, eng, name, n, true)
}

func (ts *TraceStore) get(ctx context.Context, eng core.Engine, name string, n int, record bool) (alg.Result, error) {
	a, ok := alg.ByName(name)
	if !ok {
		return alg.Result{}, fmt.Errorf("harness: unknown algorithm %q", name)
	}
	key := core.TraceKey{Algorithm: name, N: n}.String()
	if record {
		key += "+rec"
	}
	computed := false
	run, err := ts.store.Get(key, func() (alg.Result, error) {
		computed = true
		if ts.spill != nil {
			// A spilled run is paged back in from its binary file instead
			// of re-executing the algorithm.
			if run, ok, lerr := ts.spillReload(key); lerr != nil {
				return alg.Result{}, lerr
			} else if ok {
				return run, nil
			}
		}
		start := ts.probe.Now()
		r, rerr := a.Run(ctx, alg.Spec{Engine: eng, Record: record, Probe: ts.probe}, n)
		if rerr == nil && ts.probe != nil {
			ts.probe.Span("store", "trace-compute", 0, start, map[string]any{"key": key})
		}
		return r, rerr
	})
	if ts.probe != nil && !computed {
		ts.probe.Instant("store", "trace-hit", 0, map[string]any{"key": key})
	}
	if err == nil && ts.spill != nil {
		if serr := ts.spillTouch(key, run); serr != nil {
			return run, serr
		}
	}
	if IsCancellation(err) {
		// The computation died of a cancelled context: that outcome
		// belongs to whichever caller was cancelled, not to the key, so
		// drop it and let the next live caller recompute.  ForgetIf (not
		// Forget) so that when several waiters observe the same dead
		// computation, a stale one can never evict the fresh entry a
		// live caller has already started.  Genuine algorithm errors are
		// unaffected and stay memoized.
		ts.store.ForgetIf(key, func(_ alg.Result, err error) bool { return IsCancellation(err) })
	}
	return run, err
}

// IsCancellation reports whether err is (or wraps) a context
// cancellation or deadline — the class of errors that describe the
// caller rather than the computation, and therefore must never be
// memoized for a key.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats returns the cumulative hit/miss/eviction counters.
func (ts *TraceStore) Stats() core.StoreStats { return ts.store.Stats() }

// Store exposes the underlying keyed store, for consumers that report its
// capacity and counters (the nobld metrics endpoint).
func (ts *TraceStore) Store() *core.Store[alg.Result] { return ts.store }

// Len returns the number of memoized runs (completed or in flight).
func (ts *TraceStore) Len() int { return ts.store.Len() }
