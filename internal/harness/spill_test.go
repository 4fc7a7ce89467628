package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netoblivious/internal/core"
)

// TestSpillingTraceStoreRoundTrip: a budget far below the working set
// forces every run to spill; revisiting a spilled key pages the exact
// same trace back in (byte-identical JSON encoding) with its metadata,
// without re-executing — distinguishable because reloads are counted.
func TestSpillingTraceStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, err := NewSpillingTraceStore(1, dir) // 1 byte: nothing stays resident
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	ref, err := NewTraceStore().GetRecorded(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ts.GetRecorded(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ts.GetRecorded(ctx, nil, "fft", 64)
	if err != nil {
		t.Fatal(err)
	}
	var want, got1, got2 bytes.Buffer
	if err := ref.Trace.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := first.Trace.EncodeJSON(&got1); err != nil {
		t.Fatal(err)
	}
	if err := second.Trace.EncodeJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got1.Bytes()) {
		t.Error("first spilled-store run differs from the reference trace")
	}
	if !bytes.Equal(want.Bytes(), got2.Bytes()) {
		t.Error("reloaded run differs from the reference trace")
	}
	st, ok := ts.SpillStats()
	if !ok {
		t.Fatal("SpillStats reported non-spilling store")
	}
	if st.Spills < 1 {
		t.Errorf("spills = %d, want >= 1 (budget of 1 byte keeps nothing resident)", st.Spills)
	}
	if st.Reloads < 1 {
		t.Errorf("reloads = %d, want >= 1 (second Get must page in, not re-run)", st.Reloads)
	}
	if st.UsedBytes < 0 {
		t.Errorf("used bytes went negative: %d", st.UsedBytes)
	}
	// The spill files exist, are complete (footer validates on read), and
	// no temporary siblings are left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leftover temporary spill file %s", e.Name())
		}
		files++
		src, err := core.OpenTraceFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("opening spill file %s: %v", e.Name(), err)
		}
		if _, err := core.ReadAll(src); err != nil {
			t.Errorf("spill file %s does not decode: %v", e.Name(), err)
		}
		src.Close()
	}
	if files < 1 {
		t.Error("no spill files written")
	}
}

// TestSpillingTraceStorePreservesMetadata: PeakEntries lives only in the
// spill index (the binary format stores steps, not run metadata), so a
// reload must restore it.
func TestSpillingTraceStorePreservesMetadata(t *testing.T) {
	ts, err := NewSpillingTraceStore(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := NewTraceStore().Get(ctx, nil, "matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if ref.PeakEntries == 0 {
		t.Fatal("matmul run reported no PeakEntries; test needs an algorithm with the metric")
	}
	if _, err := ts.Get(ctx, nil, "matmul", 16); err != nil {
		t.Fatal(err)
	}
	reloaded, err := ts.Get(ctx, nil, "matmul", 16)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.PeakEntries != ref.PeakEntries {
		t.Errorf("reloaded PeakEntries = %d, want %d", reloaded.PeakEntries, ref.PeakEntries)
	}
}

// TestSpillingTraceStoreKeepsHotRunsResident: with a budget that fits
// the working set, nothing spills and hits are served from memory.
func TestSpillingTraceStoreKeepsHotRunsResident(t *testing.T) {
	ts, err := NewSpillingTraceStore(64<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := ts.Get(ctx, nil, "fft", 64); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := ts.SpillStats()
	if st.Spills != 0 {
		t.Errorf("spills = %d, want 0 under a 64 MiB budget", st.Spills)
	}
	if st.Resident != 1 {
		t.Errorf("resident = %d, want 1", st.Resident)
	}
	if hits := ts.Stats().Hits; hits < 2 {
		t.Errorf("store hits = %d, want >= 2 (repeat Gets served from memory)", hits)
	}
}

// TestSpillingTraceStoreRejectsBadConfig: a nonpositive budget is a
// configuration error, not a silent unbounded store.
func TestSpillingTraceStoreRejectsBadConfig(t *testing.T) {
	if _, err := NewSpillingTraceStore(0, t.TempDir()); err == nil {
		t.Error("want error for budget 0")
	}
	if _, err := NewSpillingTraceStore(-5, t.TempDir()); err == nil {
		t.Error("want error for negative budget")
	}
}

// TestSpillingTraceStoreOversizedRunLeavesResidentSet: a run larger than
// the whole budget is written out by itself; the runs already resident
// stay in memory.
func TestSpillingTraceStoreOversizedRunLeavesResidentSet(t *testing.T) {
	ts, err := NewSpillingTraceStore(4408, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{8, 64} {
		if _, err := ts.Get(ctx, nil, "fft", n); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := ts.SpillStats()
	if before.Resident != 2 || before.Spills != 0 {
		t.Fatalf("setup: %+v, want both small runs resident and no spill", before)
	}
	big, err := ts.GetRecorded(ctx, nil, "fft", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if b := traceBytes(big.Trace); b <= before.BudgetBytes {
		t.Fatalf("fft n=1024 is %d bytes, not above the %d-byte budget", b, before.BudgetBytes)
	}
	st, _ := ts.SpillStats()
	if st.Resident != 2 || st.Spills != 1 {
		t.Errorf("after the oversized run: resident %d, spills %d; want 2 and 1", st.Resident, st.Spills)
	}
	if st.UsedBytes != before.UsedBytes {
		t.Errorf("used bytes %d -> %d; the oversized run must not stay charged", before.UsedBytes, st.UsedBytes)
	}
}
