package cachesim

import (
	"math/rand"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/fft"
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
	tr, err := core.Run(4, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(64, 8)
	if _, err := SimulateTrace(tr, 4, c); err == nil {
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
	tr, err := core.RunOpt(8, func(vp *core.VP[int]) {
		for step := 0; step < 4; step++ {
			vp.Send(vp.ID()^1, 1)
			vp.Sync(0)
		}
	}, core.Options{RecordMessages: true})
	if err != nil {
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
	res, err := fft.Transform(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{64, 256, 1024, 4096}
	cs, err := MissCurve(res.Trace.Source(), 4, 8, sizes)
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
	traces := map[string]*core.Trace{}
	{
		n := 256
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		res, err := fft.Transform(x, fft.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["fft-recursive"] = res.Trace
		it, err := fft.TransformIterative(x, fft.Options{Record: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["fft-iterative"] = it.Trace
	}
	{
		tr, err := core.RunOpt(16, func(vp *core.VP[int]) {
			for step := 0; step < 6; step++ {
				vp.Send(vp.ID()^(1<<(step%4)), step)
				vp.Sync(3 - step%4)
			}
		}, core.Options{RecordMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		traces["xor-mesh"] = tr
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
			cs, err := MissCurve(tr.Source(), 4, 8, sizes)
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
	tr, err := core.RunOpt(8, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := MissCurve(tr.Source(), 4, 8, []int{64, 256})
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
	rec, err := fft.Transform(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	it, err := fft.TransformIterative(x, fft.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{128, 512, 2048}
	csRec, err := MissCurve(rec.Trace.Source(), 4, 8, sizes)
	if err != nil {
		t.Fatal(err)
	}
	csIt, err := MissCurve(it.Trace.Source(), 4, 8, sizes)
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
