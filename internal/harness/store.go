package harness

import (
	"context"
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/core"
	"netoblivious/internal/obs"
)

// Run is what the trace store keeps of one registry-algorithm run: the
// O(log²v) FoldSummary every paper metric reads — H(n,p,σ), wiseness,
// fullness, D-BSP communication time — plus the run metadata (peak
// memory) the matmul experiments report, and, in a store that records
// its runs, the run's ideal-cache miss curve.  The trace itself is
// dropped once summarized.  Callers share a Run and must not modify it.
type Run struct {
	Summary     *core.FoldSummary
	PeakEntries int
	// Misses holds the miss count per CacheSweepSizes entry and Accesses
	// the word accesses of the simulated sequential execution; nil and 0
	// in a store that does not record.
	Misses   []int64
	Accesses int64
}

// The ideal-cache miss curve a recording store computes with every run
// is IC(M, B) for each capacity M of CacheSweepSizes, with
// CacheCtxWords-word VP contexts and CacheLineWords-word lines (see
// cachesim.CurveSim).  nobld's cache kind and `nobl stat -cache` report
// this one sweep.
const CacheCtxWords, CacheLineWords = 8, 8

// CacheSweepSizes are the capacities (words) of the miss curve.  They
// must not be modified.
var CacheSweepSizes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}

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
// keep one store for its whole lifetime.  A recording store streams
// each run's message pairs into the cache simulator, so one run per key
// also serves the miss curve; a recorded run costs more than a plain
// one, so the suite's store does not record.
type TraceStore struct {
	store  *core.Store[Run]
	record bool
	probe  *obs.Probe
}

// SetProbe attaches a probe: every Get records a hit instant or wraps
// its miss's run in a "trace-compute" span, and computed runs inherit
// the probe so their engine supersteps appear in the same timeline.
// Call before serving traffic; nil detaches.
func (ts *TraceStore) SetProbe(p *obs.Probe) { ts.probe = p }

// NewTraceStore returns an empty unbounded store that does not record.
func NewTraceStore() *TraceStore {
	return NewBoundedTraceStore(0, false)
}

// NewBoundedTraceStore returns an empty store retaining at most capacity
// completed runs under LRU eviction (0 = unbounded).  With record set,
// every run is recorded into the cache simulator and its Run carries the
// miss curve over CacheSweepSizes.
func NewBoundedTraceStore(capacity int, record bool) *TraceStore {
	return &TraceStore{store: core.NewBoundedStore[Run](capacity), record: record}
}

// Get returns the memoized run of the named registry algorithm at size
// n, executing it on the given engine (nil: the BlockEngine) and
// summarizing its trace on first use.  In a recording store that run
// streams into the cache simulator superstep by superstep, so it holds
// the engine state plus one superstep, never the trace.  ctx bounds the
// wait, not the run: the run lives while any caller of the key waits for
// it, and is cancelled and forgotten when the last one leaves (see
// core.Store), so the next caller of the key recomputes.
func (ts *TraceStore) Get(ctx context.Context, eng core.Engine, name string, n int) (Run, error) {
	a, ok := alg.ByName(name)
	if !ok {
		return Run{}, fmt.Errorf("harness: unknown algorithm %q", name)
	}
	key := core.TraceKey{Algorithm: name, N: n}.String()
	computed := false
	run, err := ts.store.Get(ctx, key, func(ctx context.Context) (Run, error) {
		computed = true
		start := ts.probe.Now()
		spec := alg.Spec{Engine: eng, Probe: ts.probe}
		var cs *cachesim.CurveSim
		if ts.record {
			var err error
			// The run's BeginTrace sizes the simulator for its machine.
			if cs, err = cachesim.NewCurveSim(1, CacheCtxWords, CacheLineWords, CacheSweepSizes); err != nil {
				return Run{}, err
			}
			spec.Record, spec.Sink = true, cs
		}
		r, err := a.Run(ctx, spec, n)
		if err != nil {
			return Run{}, err
		}
		if ts.probe != nil {
			// The span covers the run and, when recorded, the simulation
			// it drives.
			args := map[string]any{"key": key}
			if cs != nil {
				args["record"] = true
			}
			ts.probe.Span("store", "trace-compute", 0, start, args)
		}
		run := Run{Summary: r.Trace.Summary(), PeakEntries: r.PeakEntries}
		if cs != nil {
			run.Misses, run.Accesses = cs.Misses(), cs.Accesses()
		}
		return run, nil
	})
	// computed is written by the computation's goroutine; a successful
	// Get orders that write before this read.
	if ts.probe != nil && err == nil && !computed {
		ts.probe.Instant("store", "trace-hit", 0, map[string]any{"key": key})
	}
	return run, err
}

// Stats returns the cumulative hit/miss/eviction counters.
func (ts *TraceStore) Stats() core.StoreStats { return ts.store.Stats() }

// Store exposes the underlying keyed store, for consumers that report its
// capacity and counters (the nobld metrics endpoint).
func (ts *TraceStore) Store() *core.Store[Run] { return ts.store }

// Len returns the number of memoized runs (completed or in flight).
func (ts *TraceStore) Len() int { return ts.store.Len() }
