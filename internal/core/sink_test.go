package core_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
	_ "netoblivious/internal/fft" // registers "fft"
)

// exchangeProgram is a deterministic workload: steps supersteps, each VP
// sending fanout messages to staggered neighbours and syncing at label 0.
func exchangeProgram(v, steps, fanout int) core.Program[int] {
	return func(vp *core.VP[int]) {
		for s := 0; s < steps; s++ {
			for k := 1; k <= fanout; k++ {
				vp.Send((vp.ID()+k*(s+1))%v, s)
			}
			vp.Sync(0)
		}
	}
}

// streamEngine is the deterministic engine for byte-identity checks: with
// a fixed worker count the BlockEngine's shard merge order — and so the
// pair order inside each step — is reproducible run to run.
var streamEngine = core.BlockEngine{Workers: 2}

// TestStreamedJSONByteIdentical: running into a TraceJSONWriter produces
// exactly the bytes EncodeJSON produces for the accumulated trace of an
// identical run — recorded pairs included.
func TestStreamedJSONByteIdentical(t *testing.T) {
	for _, record := range []bool{false, true} {
		prog := randomProgram(7, 16, 12)
		ref, err := core.RunOpt(16, prog, core.Options{Engine: streamEngine, RecordMessages: record})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := ref.EncodeJSON(&want); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		jw := core.NewTraceJSONWriter(&got)
		jw.ReleasePairs = true
		meta, err := core.RunOpt(16, prog, core.Options{Engine: streamEngine, RecordMessages: record, Sink: jw})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("record=%v: streamed JSON differs from in-memory EncodeJSON", record)
		}
		if meta.NumSupersteps() != ref.NumSupersteps() || meta.TotalMessages() != ref.TotalMessages() {
			t.Errorf("record=%v: metadata-only trace counters %d/%d, want %d/%d", record,
				meta.NumSupersteps(), meta.TotalMessages(), ref.NumSupersteps(), ref.TotalMessages())
		}
		if len(meta.Steps) != 0 {
			t.Errorf("record=%v: streamed run retained %d steps in memory", record, len(meta.Steps))
		}
	}
}

// TestStreamedJSONZeroSteps: the empty-trace framing ("steps":null) is
// preserved by the streaming writer.
func TestStreamedJSONZeroSteps(t *testing.T) {
	empty := func(vp *core.VP[int]) {}
	ref, err := core.RunOpt(1, empty, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := ref.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunOpt(1, empty, core.Options{Sink: core.NewTraceJSONWriter(&got)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("zero-step stream %q differs from EncodeJSON %q", got.String(), want.String())
	}
}

// TestTraceFileSinkBothFormats: a run streamed into a file sink round-
// trips through OpenTraceFile in both formats, the JSON file is exactly
// the EncodeJSON bytes, and no temporary files survive.
func TestTraceFileSinkBothFormats(t *testing.T) {
	prog := randomProgram(11, 32, 9)
	ref, err := core.RunOpt(32, prog, core.Options{Engine: streamEngine, RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		format core.TraceFormat
	}{
		{"trace.json", core.TraceJSON},
		{"trace.bin", core.TraceBinary},
	} {
		path := filepath.Join(dir, tc.name)
		sink := core.NewTraceFileSink(path, tc.format)
		if _, err := core.RunOpt(32, prog, core.Options{Engine: streamEngine, RecordMessages: true, Sink: sink}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		src, err := core.OpenTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := core.ReadAll(src)
		src.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if err := back.EncodeJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: file round-trip changed the trace", tc.name)
		}
		if tc.format == core.TraceJSON {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), raw) {
				t.Error("streamed JSON file is not byte-identical to EncodeJSON")
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("directory holds %d entries, want exactly the 2 trace files", len(entries))
	}
}

// TestTraceFileSinkCancellationLeavesNoFiles: a run cancelled mid-stream
// must not leave a trace file or a temporary sibling behind — EndTrace
// with the run error is the file sink's discard signal.
func TestTraceFileSinkCancellationLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prog := func(vp *core.VP[int]) {
		for s := 0; s < 50; s++ {
			if s == 5 && vp.ID() == 0 {
				cancel()
			}
			vp.Send((vp.ID()+1)%8, s)
			vp.Sync(0)
		}
	}
	sink := core.NewTraceFileSink(filepath.Join(dir, "partial.json"), core.TraceJSON)
	_, err := core.RunOpt(8, prog, core.Options{RecordMessages: true, Context: ctx, Sink: sink})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("cancelled run left %s behind", e.Name())
	}
}

// TestStreamedRunMemoryBounded is the streaming guarantee itself: a run
// whose full trace is more than 10x the largest superstep streams with
// peak live heap far below the accumulated trace size.  Live heap is
// sampled at every superstep boundary after a forced GC, so the numbers
// are live bytes rather than allocation churn.  Two inputs: a synthetic
// exchange held to a quarter of its trace, and the registry fft at
// n=65536 held to a fixed 256 MiB budget independent of n (the machine
// itself plus O(largest superstep), never the accumulated trace).
func TestStreamedRunMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("forces a GC per superstep")
	}
	const v, steps, fanout = 256, 400, 8
	cases := []struct {
		name string
		run  func(sink core.TraceSink) error
		// limit is the peak-delta budget given the full trace's size.
		limit func(inmem int64) int64
	}{
		// The bound is deliberately loose (a quarter of the full trace)
		// to absorb machine state and allocator slack; an accumulating
		// run would sit at or above inmem by its final steps.
		{"exchange", func(sink core.TraceSink) error {
			_, err := core.RunOpt(v, exchangeProgram(v, steps, fanout), core.Options{RecordMessages: true, Sink: sink})
			return err
		}, func(inmem int64) int64 { return inmem / 4 }},
		{"fft-65536", func(sink core.TraceSink) error {
			a, ok := alg.ByName("fft")
			if !ok {
				t.Fatal("fft not registered")
			}
			_, err := a.Run(context.Background(), alg.Spec{Record: true, Sink: sink}, 1<<16)
			return err
		}, func(int64) int64 { return 256 << 20 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			baseline := ms.HeapAlloc
			sink := &memProbeSink{}
			if err := c.run(sink); err != nil {
				t.Fatal(err)
			}
			if sink.inmem < 10*sink.largest {
				t.Fatalf("workload too small to be meaningful: trace %d bytes, largest step %d bytes", sink.inmem, sink.largest)
			}
			peakDelta := int64(0)
			if sink.peak > baseline {
				peakDelta = int64(sink.peak - baseline)
			}
			if limit := c.limit(sink.inmem); peakDelta > limit {
				t.Errorf("peak live heap %d bytes over baseline exceeds %d (full trace %d bytes, largest step %d bytes): streaming is not O(superstep)",
					peakDelta, limit, sink.inmem, sink.largest)
			}
			t.Logf("peak live heap %.1f MiB over baseline; full trace %.1f MiB, largest step %.1f MiB",
				float64(peakDelta)/(1<<20), float64(sink.inmem)/(1<<20), float64(sink.largest)/(1<<20))
		})
	}
}

// memProbeSink discards records while tracking live-heap peaks and what
// an accumulated trace would have occupied.
type memProbeSink struct {
	discard core.DiscardSink
	inmem   int64
	largest int64
	peak    uint64
}

func (s *memProbeSink) BeginTrace(v, logV int) error { return s.discard.BeginTrace(v, logV) }

func (s *memProbeSink) WriteStep(rec core.StepRec) error {
	sz := int64(64 + len(rec.Degree)*8 + rec.Pairs.Len()*8)
	s.inmem += sz
	if sz > s.largest {
		s.largest = sz
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	return s.discard.WriteStep(rec)
}

func (s *memProbeSink) EndTrace(runErr error) error { return s.discard.EndTrace(runErr) }

// TestPooledPairChunksSteadyState: once a streaming run has primed the
// chunk pool, further runs reuse released chunks instead of allocating
// fresh pair columns — steady-state allocation per run stays well below
// the pair bytes the run records.  GC is disabled during the measurement
// so pool emptying cannot skew it.
func TestPooledPairChunksSteadyState(t *testing.T) {
	const v, steps, fanout = 64, 50, 64 // 4096 pairs/step: full pooled chunks
	run := func() int64 {
		sink := &core.DiscardSink{}
		if _, err := core.RunOpt(v, exchangeProgram(v, steps, fanout), core.Options{
			RecordMessages: true, Sink: sink, Engine: core.BlockEngine{Workers: 1},
		}); err != nil {
			t.Fatal(err)
		}
		return int64(sink.Messages())
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var messages int64
	for i := 0; i < 3; i++ {
		messages = run() // prime the coroutine cache and the chunk pool
	}
	pairBytes := messages * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reps = 5
	for i := 0; i < reps; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := int64(after.TotalAlloc-before.TotalAlloc) / reps
	if limit := pairBytes / 2; perRun > limit {
		t.Errorf("steady-state run allocates %d bytes, want < %d (records %d pair bytes; chunk pool not reusing)",
			perRun, limit, pairBytes)
	}
}

// BenchmarkStreamedRecordedRun is the allocation series behind the chunk
// pool: a recorded run streamed into a discard sink.  Watch allocs/op —
// without pooling it grows by two 16 KiB columns per 4096 messages.
func BenchmarkStreamedRecordedRun(b *testing.B) {
	const v, steps, fanout = 64, 50, 64
	prog := exchangeProgram(v, steps, fanout)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink := &core.DiscardSink{}
		if _, err := core.RunOpt(v, prog, core.Options{
			RecordMessages: true, Sink: sink, Engine: core.BlockEngine{Workers: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
