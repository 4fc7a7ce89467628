package harness

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"netoblivious/internal/core"
)

// TestRunSuiteCtxCancellation: a cancelled Config.Context stops the suite —
// experiments not yet dispatched are skipped with a cancellation record
// instead of executing — and the whole run returns promptly instead of
// finishing the remaining work.
func TestRunSuiteCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every experiment must be skipped
	recs, err := RunSuite(Config{Quick: true, Parallel: 2, Context: ctx}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range recs {
		if rec.Err == "" || !strings.Contains(rec.Err, "cancel") {
			t.Fatalf("%s: record did not carry the cancellation (err = %q)", rec.ID, rec.Err)
		}
		if len(rec.Results) != 0 {
			t.Fatalf("%s: cancelled experiment produced results", rec.ID)
		}
	}
}

// TestTraceStoreGetCancellationNotMemoized: a store Get whose computation
// is aborted by the caller's context must not poison the key — the next
// Get with a live context recomputes and succeeds.  This is the property
// the service cache depends on: one impatient client must not break a key
// for everyone else.
func TestTraceStoreGetCancellationNotMemoized(t *testing.T) {
	store := NewTraceStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := store.Get(ctx, core.BlockEngine{}, "fft", 4096)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	run, err := store.Get(context.Background(), core.BlockEngine{}, "fft", 4096)
	if err != nil {
		t.Fatalf("key poisoned by cancelled run: %v", err)
	}
	if run.Summary == nil || run.Summary.V() != 4096 {
		t.Fatal("recomputed run is wrong")
	}
}

// TestConfigAlgRunCancelsMidRun: Config.Context reaches the engine, so an
// in-flight specification run aborts at a superstep boundary well before
// completion.
func TestConfigAlgRunCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cfg := Config{Engine: core.BlockEngine{}, Context: ctx}
	start := time.Now()
	// Large enough that an uncancelled run takes well over the cancel
	// delay on any host this test runs on.
	_, err := cfg.AlgRun("sort", 1<<15)
	elapsed := time.Since(start)
	if err == nil {
		// The run beat the cancellation — can happen on a very fast host;
		// not a failure of propagation.
		t.Skipf("run completed in %v before cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
