package harness

import (
	"bytes"
	"context"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/colsort"
	"netoblivious/internal/core"
	"netoblivious/internal/tracetest"
)

// The test registers its own algorithm through the public API before the
// equivalence sweep runs, proving the registry is open: the sweep below
// iterates the registry and never names it.
func init() {
	alg.MustRegister(alg.Algorithm{
		Name:    "zz-test-rotate",
		Doc:     "test-only ring rotation: VP i sends to (i+1) mod v each superstep",
		SizeDoc: "a power of two >= 2",
		Sizes:   []int{4, 16, 64},
		Valid:   alg.PowerOfTwo(2),
		RunFn: func(ctx context.Context, spec alg.Spec, n int) (alg.Result, error) {
			tr, err := core.RunOpt(n, func(vp *core.VP[int]) {
				for r := 0; r < 3; r++ {
					vp.Send((vp.ID()+1)%n, vp.ID())
					vp.Sync(0)
					vp.Receive()
				}
			}, spec.RunOptions())
			if err != nil {
				return alg.Result{}, err
			}
			return alg.Result{Trace: tr}, nil
		},
	})
}

// TestEngineEquivalenceAllAlgorithms runs every registry algorithm — the
// built-ins plus anything registered through the open alg API, such as
// the rotation fixture above — on both execution engines across each
// algorithm's own default size ladder and asserts byte-identical traces:
// the BlockEngine must be a drop-in replacement for the reference
// GoroutineEngine on every workload that can reach the registry.  The
// engine reaches the algorithms through the threaded spec, so the
// comparisons can themselves run under a racing test schedule safely.
func TestEngineEquivalenceAllAlgorithms(t *testing.T) {
	if _, ok := alg.ByName("zz-test-rotate"); !ok {
		t.Fatal("registry is not open: the test-registered algorithm is missing")
	}
	for _, a := range alg.All() {
		ns := a.DefaultSizes()
		if testing.Short() && len(ns) > 2 {
			ns = ns[:len(ns)-1] // drop the largest size under -short
		}
		if compared := tracetest.EngineEquivalence(t, a, ns); compared < 2 {
			t.Errorf("%s: only %d sizes compared successfully; default size ladder too restrictive", a.Name, compared)
		}
	}
}

// TestEngineEquivalenceRecordedPairs re-checks equivalence with message
// recording enabled on a real algorithm, covering the Pairs field of the
// trace contract end to end.
func TestEngineEquivalenceRecordedPairs(t *testing.T) {
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64((i * 2654435761) % 1009)
	}
	run := func(eng core.Engine) *core.Trace {
		res, err := colsort.Sort(keys, colsort.Options{Wise: true, Record: true, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		return res.Trace
	}
	ref := run(core.GoroutineEngine{})
	got := run(core.BlockEngine{})
	if ref.TotalMessages() == 0 {
		t.Fatal("expected a nonempty trace")
	}
	if !bytes.Equal(tracetest.Canonical(t, ref), tracetest.Canonical(t, got)) {
		t.Error("recorded-pairs trace differs between engines")
	}
}

// TestSuiteEngineIsolation runs two suites concurrently on different
// engines, each threaded through harness.Config.Engine, and asserts
// both produce the same passing records.
func TestSuiteEngineIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-engine suite run is slow")
	}
	ids := []string{"E1", "E10"}
	type out struct {
		recs []Record
		err  error
	}
	ch := make(chan out, 2)
	for _, eng := range []core.Engine{core.GoroutineEngine{}, core.BlockEngine{}} {
		eng := eng
		go func() {
			recs, err := RunSuite(Config{Quick: true, Engine: eng, Parallel: 2}, ids)
			ch <- out{recs, err}
		}()
	}
	a, b := <-ch, <-ch
	if a.err != nil || b.err != nil {
		t.Fatalf("suite errors: %v / %v", a.err, b.err)
	}
	for i := range a.recs {
		if !a.recs[i].Passed() || !b.recs[i].Passed() {
			t.Errorf("%s: concurrent cross-engine runs did not both pass (err %q / %q)",
				a.recs[i].ID, a.recs[i].Err, b.recs[i].Err)
			continue
		}
		if a.recs[i].Results[0].Text() != b.recs[i].Results[0].Text() {
			t.Errorf("%s: engines rendered different results", a.recs[i].ID)
		}
	}
}
