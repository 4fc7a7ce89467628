package cachesim

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/fft"
	"netoblivious/internal/tracetest"
)

func TestCacheBasics(t *testing.T) {
	c, err := New(4, 2) // 2 lines of 2 words
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0) // miss: line 0
	c.Access(1) // hit
	c.Access(2) // miss: line 1
	c.Access(0) // hit
	c.Access(4) // miss: line 2 evicts LRU (line 1)
	c.Access(2) // miss again
	if c.Misses != 4 {
		t.Errorf("misses = %d, want 4", c.Misses)
	}
	if c.Accesses != 6 {
		t.Errorf("accesses = %d, want 6", c.Accesses)
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := New(0, 2); err == nil {
		t.Error("want error for M=0")
	}
	if _, err := New(7, 2); err == nil {
		t.Error("want error for B not dividing M")
	}
}

// TestSequentialScan: a cold scan of W words misses exactly W/B times.
func TestSequentialScan(t *testing.T) {
	c, err := New(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	c.AccessRange(0, 512)
	if c.Misses != 64 {
		t.Errorf("scan misses = %d, want 64", c.Misses)
	}
}

// TestLRUWorkingSet: a loop over a working set that fits misses only on
// the first pass.
func TestLRUWorkingSet(t *testing.T) {
	c, err := New(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 10; pass++ {
		c.AccessRange(0, 64)
	}
	if c.Misses != 8 {
		t.Errorf("misses = %d, want 8 (first pass only)", c.Misses)
	}
}

// TestSimulateTraceNeedsPairs rejects traces without message recording.
func TestSimulateTraceNeedsPairs(t *testing.T) {
	var tr tracetest.Collector
	if _, err := core.RunOpt(4, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	}, core.Options{Sink: &tr}); err != nil {
		t.Fatal(err)
	}
	c, _ := New(64, 8)
	if _, err := SimulateTrace(&tr, 4, c); err == nil {
		t.Error("want error for missing Pairs")
	}
}

// TestSimulateTraceReportsPerCallDeltas is the regression test for the
// cumulative-counter bug: SimulateTrace used to return the cache's
// lifetime Misses/Accesses, so a reused Cache silently conflated runs.
// Two simulations through one cache must report per-call deltas — the
// second warm run sees fewer (or equal) misses, and the deltas sum to
// the cache's cumulative counters.
func TestSimulateTraceReportsPerCallDeltas(t *testing.T) {
	tr := &tracetest.Collector{}
	if _, err := core.RunOpt(8, func(vp *core.VP[int]) {
		for step := 0; step < 4; step++ {
			vp.Send(vp.ID()^1, 1)
			vp.Sync(0)
		}
	}, core.Options{RecordMessages: true, Sink: tr}); err != nil {
		t.Fatal(err)
	}
	c, err := New(1<<10, 8) // big enough that the working set stays warm
	if err != nil {
		t.Fatal(err)
	}
	first, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Accesses != second.Accesses {
		t.Errorf("same trace, different access counts: %d vs %d", first.Accesses, second.Accesses)
	}
	if first.Misses == 0 {
		t.Fatal("first (cold) run reported zero misses")
	}
	if second.Misses > first.Misses {
		t.Errorf("warm rerun reported more misses (%d) than the cold run (%d)", second.Misses, first.Misses)
	}
	if got := first.Misses + second.Misses; got != c.Misses {
		t.Errorf("per-call deltas sum to %d, cumulative counter is %d", got, c.Misses)
	}
	if got := first.Accesses + second.Accesses; got != c.Accesses {
		t.Errorf("per-call access deltas sum to %d, cumulative counter is %d", got, c.Accesses)
	}
}

// TestMissCurveMonotone: misses cannot increase with cache size on the
// same trace (LRU inclusion property for a fixed B).
func TestMissCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	var tr tracetest.Collector
	if _, err := fft.Transform(x, fft.Options{Record: true, Sink: &tr}); err != nil {
		t.Fatal(err)
	}
	sizes := []int{64, 256, 1024, 4096}
	cs, err := missCurve(&tr, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	curve := cs.Misses()
	for i := 1; i < len(curve); i++ {
		if curve[i] > curve[i-1] {
			t.Errorf("miss curve not monotone: %v", curve)
		}
	}
}

// TestMissCurveGolden: the single-pass CurveSim must agree exactly with
// the per-size re-simulation it replaced, across sweeps with unsorted
// and duplicate sizes, for several recorded traces.
func TestMissCurveGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	traces := map[string]*tracetest.Collector{"fft-recursive": {}, "fft-iterative": {}, "xor-mesh": {}}
	{
		n := 256
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		if _, err := fft.Transform(x, fft.Options{Record: true, Sink: traces["fft-recursive"]}); err != nil {
			t.Fatal(err)
		}
		if _, err := fft.TransformIterative(x, fft.Options{Record: true, Sink: traces["fft-iterative"]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.RunOpt(16, func(vp *core.VP[int]) {
		for step := 0; step < 6; step++ {
			vp.Send(vp.ID()^(1<<(step%4)), step)
			vp.Sync(3 - step%4)
		}
	}, core.Options{RecordMessages: true, Sink: traces["xor-mesh"]}); err != nil {
		t.Fatal(err)
	}
	sweeps := [][]int{
		{64},
		{64, 256, 1024, 4096},
		{4096, 64, 1024, 256},    // unsorted
		{256, 64, 256, 4096, 64}, // duplicates
		{8, 16, 24, 32, 1 << 20}, // tiny through larger-than-footprint
	}
	for name, tr := range traces {
		for _, sizes := range sweeps {
			want, err := missCurveReference(tr, 4, 8, sizes)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := missCurve(tr, 4, 8, sizes)
			if err != nil {
				t.Fatal(err)
			}
			got := cs.Misses()
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s sizes=%v: single-pass curve %v, reference %v", name, sizes, got, want)
					break
				}
			}
		}
	}
}

// TestCurveSimAccesses: every size of a sweep shares one address
// stream, so CurveSim's access count must match a plain simulation's.
func TestCurveSimAccesses(t *testing.T) {
	tr := &tracetest.Collector{}
	if _, err := core.RunOpt(8, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	}, core.Options{RecordMessages: true, Sink: tr}); err != nil {
		t.Fatal(err)
	}
	cs, err := missCurve(tr, 4, 8, []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(64, 8)
	st, err := SimulateTrace(tr, 4, c)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Accesses() != st.Accesses {
		t.Errorf("CurveSim accesses %d, SimulateTrace %d", cs.Accesses(), st.Accesses)
	}
	if cs.Words() != st.Words {
		t.Errorf("CurveSim words %d, SimulateTrace %d", cs.Words(), st.Words)
	}
}

// TestSection6Conjecture: the recursive FFT's sequential simulation incurs
// no more misses than the iterative butterfly's across a band of cache
// sizes — fine superstep labels become cache locality, the mechanism of
// the paper's Section 6 conjecture.
func TestSection6Conjecture(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 1 << 10
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	var rec, it tracetest.Collector
	if _, err := fft.Transform(x, fft.Options{Record: true, Sink: &rec}); err != nil {
		t.Fatal(err)
	}
	if _, err := fft.TransformIterative(x, fft.Options{Record: true, Sink: &it}); err != nil {
		t.Fatal(err)
	}
	sizes := []int{128, 512, 2048}
	csRec, err := missCurve(&rec, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	csIt, err := missCurve(&it, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	curveRec, curveIt := csRec.Misses(), csIt.Misses()
	// Compare per-access miss rates: the two algorithms touch different
	// total word counts, so normalize.
	accRec, accIt := float64(csRec.Accesses()), float64(csIt.Accesses())
	for i, m := range sizes {
		rRec := float64(curveRec[i]) / accRec
		rIt := float64(curveIt[i]) / accIt
		// The rates must stay comparable (same Θ); the recursive
		// variant's 3-transpose substitution costs a constant factor of
		// absolute traffic but not an asymptotic rate penalty.
		if rRec > rIt*1.5 {
			t.Errorf("M=%d: recursive miss rate %.4f worse than iterative %.4f", m, rRec, rIt)
		}
	}
}

// TestMissCurveRandomDifferential holds CurveSim to the per-size
// reference on random pair streams over random machines, for contexts
// that span one to three lines and every line length, with sweeps that
// include a one-line cache, duplicate and unsorted sizes and a cache
// larger than the footprint.
func TestMissCurveRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ctxs := []int{1, 3, 8, 13, 17}
	bs := []int{1, 2, 8, 16}
	for trial := 0; trial < 300; trial++ {
		ctx, b := ctxs[trial%len(ctxs)], bs[trial/len(ctxs)%len(bs)]
		v := 1 + rng.Intn(64)
		tr := &tracetest.Collector{V: v}
		for step, steps := 0, 1+rng.Intn(6); step < steps; step++ {
			var pairs [][2]int32
			for i, n := 0, rng.Intn(3*v+1); i < n; i++ {
				src := rng.Intn(v)
				dst := rng.Intn(v)
				if rng.Intn(2) == 0 { // local traffic
					dst = min(v-1, src^(1<<rng.Intn(3)))
				}
				pairs = append(pairs, [2]int32{int32(src), int32(dst)})
			}
			rec := core.StepRec{Messages: int64(len(pairs))}
			if len(pairs) > 0 {
				rec.Pairs = core.PairListOf(pairs)
			}
			tr.Steps = append(tr.Steps, rec)
		}
		lines := (v*(ctx+1) + b - 1) / b
		sizes := []int{b} // one line
		for i, n := 0, 1+rng.Intn(5); i < n; i++ {
			sizes = append(sizes, b*(1+rng.Intn(lines+2)))
		}
		sizes = append(sizes, sizes[rng.Intn(len(sizes))]) // a duplicate
		if rng.Intn(2) == 0 {
			sizes = append(sizes, b*(lines+1+rng.Intn(8))) // no line is ever evicted
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

		want, err := missCurveReference(tr, ctx, b, sizes)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := missCurve(tr, ctx, b, sizes)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := New(b, b)
		ref, err := SimulateTrace(tr, ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if got := cs.Misses(); !slices.Equal(got, want) || cs.Accesses() != ref.Accesses {
			t.Fatalf("trial %d (v=%d ctx=%d B=%d sizes=%v): misses %v accesses %d, reference %v accesses %d",
				trial, v, ctx, b, sizes, got, cs.Accesses(), want, ref.Accesses)
		}
	}
}

// TestCurveSimRejectsOutOfRangePairs: an in-memory trace bypasses the
// decoders' checks, so Step itself rejects a pair endpoint that is not a
// VP of the machine.
func TestCurveSimRejectsOutOfRangePairs(t *testing.T) {
	for _, pair := range [][2]int32{{9, 2}, {4, 0}, {-1, 0}, {0, -7}, {0, 4}} {
		cs, err := NewCurveSim(4, 4, 8, []int{64})
		if err != nil {
			t.Fatal(err)
		}
		rec := core.StepRec{Messages: 2, Pairs: core.PairListOf([][2]int32{{1, 3}, pair})}
		if err := cs.Step(&rec); err == nil || !strings.Contains(err.Error(), "outside [0, 4)") {
			t.Errorf("pair %v: err = %v, want an out-of-range error", pair, err)
		}
	}
}

// TestCurveSimAllocatesOnFirstStep: a header-only trace of a huge
// machine costs nothing per VP; the stack is allocated by the first Step.
func TestCurveSimAllocatesOnFirstStep(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cs, err := NewCurveSim(1<<30, 8, 8, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	misses := cs.Misses()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("NewCurveSim(2^30 VPs) and Misses allocated %d bytes, want < 1 MiB", d)
	}
	for i, m := range misses {
		if m != 0 {
			t.Errorf("misses[%d] = %d before any step", i, m)
		}
	}
}

// TestCurveSimAsSink: a CurveSim passed as the run's sink, built before
// the machine is known, reads the same curve as a replay of the
// collected recording of the same run, and refuses a second machine
// once it has simulated a step.
func TestCurveSimAsSink(t *testing.T) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	sizes := []int{1 << 7, 1 << 9, 1 << 11}
	var mem tracetest.Collector
	if _, err := fft.Transform(x, fft.Options{Record: true, Sink: &mem}); err != nil {
		t.Fatal(err)
	}
	ref, err := missCurve(&mem, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCurveSim(1, 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	run, err := fft.Transform(x, fft.Options{Record: true, Sink: cs})
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace.NumSupersteps() != len(mem.Steps) {
		t.Errorf("streamed run counted %d steps, want %d", run.Trace.NumSupersteps(), len(mem.Steps))
	}
	if !slices.Equal(cs.Misses(), ref.Misses()) || cs.Accesses() != ref.Accesses() || cs.Words() != ref.Words() {
		t.Errorf("sink misses %v accesses %d words %d, replay %v %d %d",
			cs.Misses(), cs.Accesses(), cs.Words(), ref.Misses(), ref.Accesses(), ref.Words())
	}
	if err := cs.BeginTrace(512, 9); err == nil {
		t.Error("BeginTrace after the first step succeeded")
	}
}
