package harness

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// The spill layer turns the trace store's retention policy from
// count-based eviction into a memory budget: runs beyond the budget are
// written to disk in the compact binary trace format instead of being
// discarded, and paged back in on demand.  A spilled run therefore
// costs one file read to revisit, not a re-execution — the difference
// matters for the large-n traces this store exists to serve.
//
// The index (key → file, byte size, peak-entries metadata) always stays
// in memory; only step data spills.  Spill files are written atomically
// (tmp + rename, via core.TraceFileSink) and are immutable once
// written: a run's trace is deterministic, so a re-spilled key reuses
// its existing file without rewriting.

// SpillStats reports the state and cumulative activity of a spilling
// trace store.
type SpillStats struct {
	// Resident counts runs currently held in memory, Spilled those
	// currently on disk only.
	Resident int `json:"resident"`
	Spilled  int `json:"spilled"`
	// UsedBytes is the estimated in-memory footprint of the resident
	// runs; BudgetBytes the configured ceiling.
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	// Spills and Reloads count write-outs and page-ins over the store's
	// lifetime.
	Spills  int64 `json:"spills"`
	Reloads int64 `json:"reloads"`
}

// spillEntry is the in-memory index record of one run.
type spillEntry struct {
	key         string
	bytes       int64
	peakEntries int
	path        string        // spill file; "" until first written out
	elem        *list.Element // LRU position while resident; nil when spilled
}

type spiller struct {
	mu      sync.Mutex
	dir     string
	budget  int64
	used    int64
	entries map[string]*spillEntry
	lru     *list.List // of *spillEntry; front = most recently used
	seq     int
	spills  int64
	reloads int64
}

// NewSpillingTraceStore returns a store that keeps completed runs in
// memory up to budgetBytes (estimated trace footprint) and spills the
// least recently used ones to binary files under dir instead of
// discarding them.  The directory is created if missing; its spill
// files belong to this store for the process lifetime and are left for
// the caller to remove (use a temporary directory).
func NewSpillingTraceStore(budgetBytes int64, dir string) (*TraceStore, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("harness: spill budget must be positive, got %d", budgetBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: spill dir: %w", err)
	}
	return &TraceStore{
		store: core.NewStore[alg.Result](),
		spill: &spiller{
			dir:     dir,
			budget:  budgetBytes,
			entries: map[string]*spillEntry{},
			lru:     list.New(),
		},
	}, nil
}

// SpillStats returns the spill-layer counters; ok is false when the
// store is not a spilling store.
func (ts *TraceStore) SpillStats() (SpillStats, bool) {
	if ts.spill == nil {
		return SpillStats{}, false
	}
	sp := ts.spill
	sp.mu.Lock()
	defer sp.mu.Unlock()
	st := SpillStats{
		Resident:    sp.lru.Len(),
		Spilled:     len(sp.entries) - sp.lru.Len(),
		UsedBytes:   sp.used,
		BudgetBytes: sp.budget,
		Spills:      sp.spills,
		Reloads:     sp.reloads,
	}
	return st, true
}

// traceBytes estimates the in-memory footprint of a trace: the step
// records plus 8 bytes per recorded message pair (two int32 columns).
func traceBytes(tr *core.Trace) int64 {
	if tr == nil {
		return 0
	}
	var b int64
	for i := range tr.Steps {
		rec := &tr.Steps[i]
		b += 64 + int64(len(rec.Degree))*8 + int64(rec.Pairs.Len())*8
	}
	return b
}

// spillReload pages a previously spilled run back in.  Called from
// inside the store's single-flight compute, so at most one reload per
// key runs at a time.
func (ts *TraceStore) spillReload(key string) (alg.Result, bool, error) {
	sp := ts.spill
	sp.mu.Lock()
	e := sp.entries[key]
	if e == nil || e.path == "" {
		sp.mu.Unlock()
		return alg.Result{}, false, nil
	}
	path, peak := e.path, e.peakEntries
	sp.reloads++
	sp.mu.Unlock()
	src, err := core.OpenTraceFile(path)
	if err != nil {
		return alg.Result{}, false, fmt.Errorf("harness: reloading spilled trace %s: %w", key, err)
	}
	defer src.Close()
	tr, err := core.ReadAll(src)
	if err != nil {
		return alg.Result{}, false, fmt.Errorf("harness: reloading spilled trace %s: %w", key, err)
	}
	return alg.Result{Trace: tr, PeakEntries: peak}, true, nil
}

// spillTouch charges a just-computed or just-reloaded run against the
// budget, refreshes its LRU position, and writes out least recently
// used runs while the budget is exceeded.  A single run larger than the
// whole budget is written out alone, immediately, and the resident set
// is left as it was — later Gets page it in per use.
func (ts *TraceStore) spillTouch(key string, run alg.Result) error {
	sp := ts.spill
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e := sp.entries[key]
	if e == nil {
		e = &spillEntry{key: key, bytes: traceBytes(run.Trace), peakEntries: run.PeakEntries}
		sp.entries[key] = e
	}
	if e.elem == nil {
		e.elem = sp.lru.PushFront(e)
		sp.used += e.bytes
	} else {
		sp.lru.MoveToFront(e.elem)
	}
	for sp.used > sp.budget && sp.lru.Len() > 0 {
		victim := sp.lru.Back().Value.(*spillEntry)
		if e.elem != nil && e.bytes > sp.budget {
			// Alone it overflows the budget: write it out by itself
			// instead of flushing the resident set first.
			victim = e
		}
		if err := sp.writeOutLocked(ts.store, victim); err != nil {
			// A failed write-out must not lose the run: leave it resident
			// (the budget is advisory, the data is not) and surface the
			// error to the caller that triggered the rebalance.
			return fmt.Errorf("harness: spilling trace %s: %w", victim.key, err)
		}
	}
	return nil
}

// writeOutLocked spills one resident entry: write its trace (once),
// drop it from the memo store, and uncharge it.  Called with sp.mu
// held.
func (sp *spiller) writeOutLocked(store *core.Store[alg.Result], victim *spillEntry) error {
	run, err, ok := store.Peek(victim.key)
	if !ok || err != nil || run.Trace == nil {
		// The entry vanished from the store (a Forget) or never held a
		// usable trace: uncharge and drop the index record.
		sp.lru.Remove(victim.elem)
		victim.elem = nil
		sp.used -= victim.bytes
		delete(sp.entries, victim.key)
		return nil
	}
	if victim.path == "" {
		path := filepath.Join(sp.dir, fmt.Sprintf("spill-%06d.nobtrc", sp.seq))
		sp.seq++
		if werr := writeTraceFile(path, run.Trace); werr != nil {
			return werr
		}
		victim.path = path
	}
	store.Forget(victim.key)
	sp.lru.Remove(victim.elem)
	victim.elem = nil
	sp.used -= victim.bytes
	sp.spills++
	return nil
}

// writeTraceFile writes tr to path in the binary spill format,
// atomically, without releasing the live trace's pair chunks.
func writeTraceFile(path string, tr *core.Trace) error {
	sink := core.NewTraceFileSink(path, core.TraceBinary)
	sink.KeepPairs = true
	if err := sink.BeginTrace(tr.V, tr.LogV); err != nil {
		return err
	}
	werr := func() error {
		for i := range tr.Steps {
			if err := sink.WriteStep(tr.Steps[i]); err != nil {
				return err
			}
		}
		return nil
	}()
	if err := sink.EndTrace(werr); err != nil && werr == nil {
		werr = err
	}
	return werr
}
