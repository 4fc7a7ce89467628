package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"netoblivious/alg"
	_ "netoblivious/internal/colsort" // registers "sort"
	"netoblivious/internal/core"
	_ "netoblivious/internal/fft"     // registers "fft"
	_ "netoblivious/internal/stencil" // registers "stencil2"
	"netoblivious/internal/tracetest"
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
// exactly the bytes of an identical run collected in memory and encoded
// afterwards — recorded pairs included.
func TestStreamedJSONByteIdentical(t *testing.T) {
	for _, record := range []bool{false, true} {
		prog := randomProgram(7, 16, 12)
		var ref tracetest.Collector
		refTr, err := core.RunOpt(16, prog, core.Options{Engine: streamEngine, RecordMessages: record, Sink: &ref})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		jw := core.NewTraceJSONWriter(&got)
		meta, err := core.RunOpt(16, prog, core.Options{Engine: streamEngine, RecordMessages: record, Sink: jw})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.JSON(t), got.Bytes()) {
			t.Errorf("record=%v: streamed JSON differs from the collected run's encoding", record)
		}
		if meta.NumSupersteps() != refTr.NumSupersteps() || meta.TotalMessages() != refTr.TotalMessages() {
			t.Errorf("record=%v: streamed trace counters %d/%d, want %d/%d", record,
				meta.NumSupersteps(), meta.TotalMessages(), refTr.NumSupersteps(), refTr.TotalMessages())
		}
	}
}

// TestStreamedRunSummary: a run's Trace carries the fold summary of its
// supersteps whatever sink they went to.  Run without a sink, streamed
// into a DiscardSink, or collected in memory, every run agrees on S, on
// F at every fold, and on the superstep and message counts.
func TestStreamedRunSummary(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    int
	}{{"fft", 256}, {"sort", 64}, {"stencil2", 8}} {
		a, ok := alg.ByName(tc.name)
		if !ok {
			t.Fatalf("%s: not registered", tc.name)
		}
		plain, err := a.Run(ctx, alg.Spec{}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		discarded, err := a.Run(ctx, alg.Spec{Sink: &core.DiscardSink{}}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		collected, err := a.Run(ctx, alg.Spec{Sink: &tracetest.Collector{}}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		want := plain.Trace.Summary()
		for _, got := range []struct {
			how string
			tr  *core.Trace
		}{{"DiscardSink run", discarded.Trace}, {"collected run", collected.Trace}} {
			fs := got.tr.Summary()
			if !slices.Equal(fs.S(), want.S()) {
				t.Errorf("%s n=%d, %s: S = %v, without a sink %v", tc.name, tc.n, got.how, fs.S(), want.S())
			}
			for p := 2; p <= want.V(); p *= 2 {
				if !slices.Equal(fs.F(p), want.F(p)) {
					t.Errorf("%s n=%d, %s: F(%d) = %v, without a sink %v", tc.name, tc.n, got.how, p, fs.F(p), want.F(p))
				}
			}
			if got.tr.NumSupersteps() != plain.Trace.NumSupersteps() || got.tr.TotalMessages() != plain.Trace.TotalMessages() {
				t.Errorf("%s n=%d, %s: %d supersteps / %d messages, without a sink %d / %d", tc.name, tc.n, got.how,
					got.tr.NumSupersteps(), got.tr.TotalMessages(), plain.Trace.NumSupersteps(), plain.Trace.TotalMessages())
			}
		}
	}
}

// TestStreamedMixedDelivery: at W=4 on v=64 (16-VP blocks) supersteps
// with label >= 2 are delivered block-locally and those below through
// the cross-worker buckets.  A run alternating the two, streamed into a
// sink, must match the GoroutineEngine in every degree and message
// count, and in pair order: the BlockEngine's pairs run in (source,
// send order), which is the GoroutineEngine's pairs stably sorted by
// source (it appends whole clusters in completion order).
func TestStreamedMixedDelivery(t *testing.T) {
	const v = 64
	prog := labelledProgram(23, []int{0, 4, 1, 5, 2, 3, 1, 5, 0, 2})
	var ref, got tracetest.Collector
	opts := core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}, Sink: &ref}
	if _, err := core.RunOpt(v, prog, opts); err != nil {
		t.Fatal(err)
	}
	opts.Engine, opts.Sink = core.BlockEngine{Workers: 4}, &got
	if _, err := core.RunOpt(v, prog, opts); err != nil {
		t.Fatal(err)
	}
	if len(got.Steps) != len(ref.Steps) {
		t.Fatalf("supersteps: block engine %d, goroutine engine %d", len(got.Steps), len(ref.Steps))
	}
	for i, want := range ref.Steps {
		wantPairs := want.Pairs.Pairs()
		slices.SortStableFunc(wantPairs, func(a, b [2]int32) int { return int(a[0] - b[0]) })
		rec := got.Steps[i]
		if rec.Label != want.Label || rec.Messages != want.Messages || !slices.Equal(rec.Degree, want.Degree) {
			t.Errorf("step %d: label %d, %d messages, degrees %v; goroutine engine %d, %d, %v",
				i, rec.Label, rec.Messages, rec.Degree, want.Label, want.Messages, want.Degree)
		}
		if !slices.Equal(rec.Pairs.Pairs(), wantPairs) {
			t.Errorf("step %d: pairs %v, want %v", i, rec.Pairs.Pairs(), wantPairs)
		}
	}
}

// TestStreamedJSONZeroSteps: the empty-trace framing ("steps":null) is
// preserved by the streaming writer.
func TestStreamedJSONZeroSteps(t *testing.T) {
	empty := func(vp *core.VP[int]) {}
	var ref tracetest.Collector
	if _, err := core.RunOpt(1, empty, core.Options{Sink: &ref}); err != nil {
		t.Fatal(err)
	}
	want := ref.JSON(t)
	var got bytes.Buffer
	if _, err := core.RunOpt(1, empty, core.Options{Sink: core.NewTraceJSONWriter(&got)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) || string(want) != `{"v":1,"log_v":0,"steps":null}`+"\n" {
		t.Errorf("zero-step stream %q, collected %q; want the null steps framing", got.String(), want)
	}
}

// TestTraceFileSinkJSON: a run streamed into a file sink round-trips
// through OpenTraceFile, the file is exactly the bytes of the run
// collected and encoded, and no temporary file survives.
func TestTraceFileSinkJSON(t *testing.T) {
	prog := randomProgram(11, 32, 9)
	var ref tracetest.Collector
	if _, err := core.RunOpt(32, prog, core.Options{Engine: streamEngine, RecordMessages: true, Sink: &ref}); err != nil {
		t.Fatal(err)
	}
	want := ref.JSON(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	sink := core.NewTraceFileSink(path)
	if _, err := core.RunOpt(32, prog, core.Options{Engine: streamEngine, RecordMessages: true, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	src, err := core.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := tracetest.ReadAll(src)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, back.JSON(t)) {
		t.Error("file round-trip changed the trace")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, raw) {
		t.Error("streamed JSON file is not byte-identical to the collected run's encoding")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want exactly the trace file", len(entries))
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
	sink := core.NewTraceFileSink(filepath.Join(dir, "partial.json"))
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
//
// Each input runs in a fresh child process of the test binary (marked
// by memoryChildEnv): the forced GCs would otherwise also mark what
// earlier tests left in the process — every goroutine descriptor a large
// machine ever had, every cached coroutine — which made them time the
// test binary's history more than the streaming.
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
			if os.Getenv(memoryChildEnv) == "" {
				out, err := runTestChild("^TestStreamedRunMemoryBounded$/^" + c.name + "$")
				if err != nil {
					t.Fatalf("child process: %v\n%s", err, out)
				}
				i := bytes.Index(out, []byte("peak live heap"))
				if i < 0 {
					t.Fatalf("child process measured nothing:\n%s", out)
				}
				line, _, _ := bytes.Cut(out[i:], []byte("\n"))
				t.Logf("child process: %s", line)
				return
			}
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

// memoryChildEnv marks a child process of the test binary that runs one
// memory measurement; internal/service's memory tests use the same
// marker.
const memoryChildEnv = "NOBLD_MEMORY_TEST_CHILD"

// runTestChild runs the tests matching pattern in a fresh process of the
// test binary, marked by memoryChildEnv, and returns its output.
func runTestChild(pattern string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], "-test.run", pattern, "-test.v", "-test.count=1")
	cmd.Env = append(os.Environ(), memoryChildEnv+"=1")
	return cmd.CombinedOutput()
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

// TestPooledPairChunksSteadyState: once a recorded run has primed the
// chunk pool, further runs reuse the chunks the run released after each
// WriteStep instead of allocating fresh pair columns, whatever the sink
// does with the lent pairs: steady-state allocation per run stays well
// below the pair bytes the run records, for a sink that drops the
// records and for one that reads every pair.  GC is disabled during the
// measurement so pool emptying cannot skew it; the race runtime drops a
// random share of sync.Pool puts on purpose, so the test runs only
// without it.
func TestPooledPairChunksSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random")
	}
	const v, steps, fanout = 64, 50, 64 // 4096 pairs/step: full pooled chunks
	for _, tc := range []struct {
		name string
		sink func() core.TraceSink
	}{
		{"discard", func() core.TraceSink { return &core.DiscardSink{} }},
		{"reader", func() core.TraceSink { return &pairSumSink{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() int64 {
				tr, err := core.RunOpt(v, exchangeProgram(v, steps, fanout), core.Options{
					RecordMessages: true, Sink: tc.sink(), Engine: core.BlockEngine{Workers: 1},
				})
				if err != nil {
					t.Fatal(err)
				}
				return tr.TotalMessages()
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
		})
	}
}

// pairSumSink reads every lent record's pairs in WriteStep and keeps
// only a checksum per step.  It also holds each step's list past its
// WriteStep, which a sink must not do, only to count in stale the lists
// the run had not emptied by the next WriteStep.
type pairSumSink struct {
	sums  []int64
	last  *core.PairList
	stale int
}

func (s *pairSumSink) BeginTrace(v, logV int) error { return nil }

func (s *pairSumSink) WriteStep(rec core.StepRec) error {
	if s.last.Len() > 0 {
		s.stale++
	}
	s.sums = append(s.sums, pairSum(rec.Pairs))
	s.last = rec.Pairs
	return nil
}

func (s *pairSumSink) EndTrace(runErr error) error { return nil }

// pairSum is an order-sensitive checksum of a pair list.
func pairSum(p *core.PairList) int64 {
	var sum int64
	for src, dst := range p.All() {
		sum = sum*1_000_003 + int64(src)<<32 + int64(dst)
	}
	return sum
}

// TestRunLendsRecords: a run lends each record to its sink and recycles
// its pairs once WriteStep returns.  A sink that reads the pairs inside
// WriteStep sees what a copying collector keeps, at one worker and at
// four, and a list it held on to is empty by the next WriteStep.  Under
// -race this checks that recycling a step's chunks for the next
// superstep never overlaps the sink's reads.
func TestRunLendsRecords(t *testing.T) {
	const v, steps, fanout = 64, 8, 80 // 5120 pairs/step: two chunks per step
	prog := exchangeProgram(v, steps, fanout)
	for _, w := range []int{1, 4} {
		opts := core.Options{RecordMessages: true, Engine: core.BlockEngine{Workers: w}}
		var ref tracetest.Collector
		opts.Sink = &ref
		if _, err := core.RunOpt(v, prog, opts); err != nil {
			t.Fatal(err)
		}
		got := &pairSumSink{}
		opts.Sink = got
		if _, err := core.RunOpt(v, prog, opts); err != nil {
			t.Fatal(err)
		}
		if len(got.sums) != len(ref.Steps) {
			t.Fatalf("W=%d: sink saw %d steps, collector %d", w, len(got.sums), len(ref.Steps))
		}
		for i, rec := range ref.Steps {
			if want := pairSum(rec.Pairs); got.sums[i] != want {
				t.Errorf("W=%d step %d: pairs read in WriteStep sum to %d, collected copy to %d", w, i, got.sums[i], want)
			}
		}
		if got.stale > 0 || got.last.Len() > 0 {
			t.Errorf("W=%d: %d lent pair lists still held pairs after their WriteStep returned (last: %d pairs)", w, got.stale, got.last.Len())
		}
	}
}

// TestJSONReaderDecodeAllocation: the JSON reader lends each step its
// decode columns instead of copying them, so decoding a recorded trace
// allocates the reader's buffers, a small fraction of the pair bytes it
// reads.  Measured on sort n=1024, whose 596 steps record 2.15 million
// messages (17 MB of pairs).  Like the pool test, it runs only without
// the race runtime, whose instrumentation changes allocation.
func TestJSONReaderDecodeAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound measured without the race runtime")
	}
	a, ok := alg.ByName("sort")
	if !ok {
		t.Fatal("sort not registered")
	}
	var buf bytes.Buffer
	run, err := a.Run(context.Background(), alg.Spec{Record: true, Sink: core.NewTraceJSONWriter(&buf)}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		src, err := core.NewTraceSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := src.Next(); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	pairBytes := run.Trace.TotalMessages() * 8
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), pairBytes/10; got > limit {
		t.Errorf("decoding %d trace bytes allocated %d bytes, want < %d (a tenth of its %d pair bytes; are the pairs copied?)",
			buf.Len(), got, limit, pairBytes)
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
