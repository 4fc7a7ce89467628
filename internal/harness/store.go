package harness

import (
	"context"
	"errors"
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/obs"
)

// Run is what the trace store keeps of one registry-algorithm run: the
// O(log²v) FoldSummary every paper metric reads — H(n,p,σ), wiseness,
// fullness, D-BSP communication time — plus the run metadata (peak
// memory) the matmul experiments report.  The trace itself is dropped
// once summarized.
type Run struct {
	Summary     *core.FoldSummary
	PeakEntries int
}

// TraceStore memoizes registry-algorithm runs by (algorithm, n), keeping
// the Run summary of each.  The paper's algorithms are static — their
// communication depends only on the input size — so one execution per
// key serves every experiment and analysis that needs it: E1/E2/E8/E9/
// E10/E12/E13 all fold the same handful of runs, and without the store
// each recomputed them.  The engine is not part of the key: every engine
// produces the same trace, so whichever engine computes a key first
// serves callers of the others.  The store is safe for concurrent use
// and computations are single-flight (core.Store), which also keeps the
// suite's hit/miss counters schedule-independent.
//
// A bounded store (NewBoundedTraceStore) additionally evicts the least
// recently used runs beyond a capacity.  An entry is a few KB whatever
// the trace's message count, so the count bound is also a memory bound,
// which is what lets a long-running process — nobld in particular —
// keep one store for its whole lifetime.
type TraceStore struct {
	store *core.Store[Run]
	probe *obs.Probe
}

// SetProbe attaches a probe: every Get records a hit instant or wraps
// its miss's run in a "trace-compute" span, and computed runs inherit
// the probe so their engine supersteps appear in the same timeline.
// Call before serving traffic; nil detaches.
func (ts *TraceStore) SetProbe(p *obs.Probe) { ts.probe = p }

// NewTraceStore returns an empty unbounded store.
func NewTraceStore() *TraceStore {
	return NewBoundedTraceStore(0)
}

// NewBoundedTraceStore returns an empty store retaining at most capacity
// completed runs under LRU eviction (0 = unbounded).
func NewBoundedTraceStore(capacity int) *TraceStore {
	return &TraceStore{store: core.NewBoundedStore[Run](capacity)}
}

// Get returns the memoized run of the named registry algorithm at size
// n, executing it on the given engine (nil: the BlockEngine) and
// summarizing its trace on first use.  ctx bounds that execution;
// because cancellation errors would otherwise be memoized for every
// later caller of the key, a run failing with ctx's error is forgotten
// instead of cached.
func (ts *TraceStore) Get(ctx context.Context, eng core.Engine, name string, n int) (Run, error) {
	a, ok := alg.ByName(name)
	if !ok {
		return Run{}, fmt.Errorf("harness: unknown algorithm %q", name)
	}
	key := core.TraceKey{Algorithm: name, N: n}.String()
	computed := false
	run, err := ts.store.Get(key, func() (Run, error) {
		computed = true
		start := ts.probe.Now()
		r, err := a.Run(ctx, alg.Spec{Engine: eng, Probe: ts.probe}, n)
		if err != nil {
			return Run{}, err
		}
		if ts.probe != nil {
			ts.probe.Span("store", "trace-compute", 0, start, map[string]any{"key": key})
		}
		fs, err := r.Trace.Summary()
		if err != nil {
			return Run{}, err
		}
		return Run{Summary: fs, PeakEntries: r.PeakEntries}, nil
	})
	if ts.probe != nil && !computed {
		ts.probe.Instant("store", "trace-hit", 0, map[string]any{"key": key})
	}
	if IsCancellation(err) {
		// The computation died of a cancelled context: that outcome
		// belongs to whichever caller was cancelled, not to the key, so
		// drop it and let the next live caller recompute.  ForgetIf
		// matches the outcome, so when several waiters observe the same
		// dead computation, a stale one can never evict the fresh entry
		// a live caller has already started.  Genuine algorithm errors
		// are unaffected and stay memoized.
		ts.store.ForgetIf(key, func(_ Run, err error) bool { return IsCancellation(err) })
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
func (ts *TraceStore) Store() *core.Store[Run] { return ts.store }

// Len returns the number of memoized runs (completed or in flight).
func (ts *TraceStore) Len() int { return ts.store.Len() }
