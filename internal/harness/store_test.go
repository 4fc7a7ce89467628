package harness

import (
	"context"
	"reflect"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// TestTraceStoreSharesExecutions runs the full quick suite against one
// store and asserts the acceptance criterion of the pipeline refactor:
// the (algorithm, n) overlap between experiments — E1/E2 share the
// matmul traces with E8/E9/E10/E12, E13 shares the sort traces, and so
// on — is served from cache, not recomputed.
func TestTraceStoreSharesExecutions(t *testing.T) {
	store := NewTraceStore()
	recs, err := RunSuite(Config{Quick: true, Store: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	st := store.Stats()
	if st.Hits < 1 {
		t.Errorf("trace store recorded %d hits over the full quick suite; want >= 1 (duplicate executions not eliminated)", st.Hits)
	}
	if st.Misses < 1 {
		t.Error("trace store recorded no misses; store not exercised")
	}
	if st.Misses != int64(storeLen(store)) {
		t.Errorf("misses (%d) != distinct keys (%d): single-flight accounting broken", st.Misses, storeLen(store))
	}
	t.Logf("trace store: %d hits, %d misses (hit rate %.0f%%)", st.Hits, st.Misses, 100*st.HitRate())
}

func storeLen(ts *TraceStore) int { return ts.store.Len() }

// TestTraceStoreSharesAcrossEngines asserts the store keys runs by
// (algorithm, n) only: a run computed on one engine serves a caller on
// another, and the trace key renders its canonical form.
func TestTraceStoreSharesAcrossEngines(t *testing.T) {
	store := NewTraceStore()
	ctx := context.Background()
	a, err := store.Get(ctx, core.BlockEngine{}, "broadcast-tree", 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.Get(ctx, core.GoroutineEngine{}, "broadcast-tree", 64)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Error("the same (algorithm, n) on two engines computed two runs")
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit across engines", st)
	}
	if _, err := store.Get(ctx, nil, "no-such-alg", 8); err == nil {
		t.Error("unknown algorithm accepted")
	}
	key := core.TraceKey{Algorithm: "fft", N: 256}
	if key.String() != "fft/n=256" {
		t.Errorf("TraceKey.String() = %q", key.String())
	}
}

// TestTraceStoreSummaryMatchesRun: the store keeps the fold summary of
// the run, not its trace, and that summary equals one built from a
// direct run of the algorithm, also when the store records the run into
// the cache simulator.  A revisit is served from memory.
func TestTraceStoreSummaryMatchesRun(t *testing.T) {
	ctx := context.Background()
	a, _ := alg.ByName("fft")
	direct, err := a.Run(ctx, alg.Spec{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Trace.Summary()
	for _, store := range []*TraceStore{NewTraceStore(), NewBoundedTraceStore(0, true)} {
		for i := 0; i < 2; i++ {
			run, err := store.Get(ctx, nil, "fft", 64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run.Summary, want) {
				t.Fatalf("Get %d (record %v): stored summary differs from the direct run's", i, store.record)
			}
			if (len(run.Misses) == len(CacheSweepSizes)) != store.record {
				t.Errorf("Get %d (record %v): miss curve %v", i, store.record, run.Misses)
			}
		}
		if st := store.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Errorf("stats = %+v, want 1 miss + 1 hit", st)
		}
	}
}

// TestTraceStorePreservesMetadata: the run metadata the matmul
// experiments report travels with the summary.
func TestTraceStorePreservesMetadata(t *testing.T) {
	ctx := context.Background()
	a, _ := alg.ByName("matmul")
	direct, err := a.Run(ctx, alg.Spec{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if direct.PeakEntries == 0 {
		t.Fatal("matmul run reported no PeakEntries; test needs an algorithm with the metric")
	}
	run, err := NewTraceStore().Get(ctx, nil, "matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if run.PeakEntries != direct.PeakEntries {
		t.Errorf("stored PeakEntries = %d, want %d", run.PeakEntries, direct.PeakEntries)
	}
}
