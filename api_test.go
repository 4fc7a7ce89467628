package netoblivious_test

import (
	"context"
	"errors"
	"testing"

	nob "netoblivious"
)

// TestFacadeEndToEnd drives the whole public API surface: write an
// algorithm, run it, evaluate it on M(p,σ) and on D-BSP machines.
func TestFacadeEndToEnd(t *testing.T) {
	const v = 64
	tr, err := nob.Run(v, func(vp *nob.VP[int]) {
		vp.Send(v-1-vp.ID(), vp.ID())
		nob.WisenessDummies(vp, 0, 1)
		vp.Sync(0)
		if m, ok := vp.Receive(); !ok || m != v-1-vp.ID() {
			panic("wrong payload")
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSupersteps() != 2 {
		t.Fatalf("supersteps = %d", tr.NumSupersteps())
	}
	for _, p := range []int{2, 8, 64} {
		f := nob.Fold(tr, p)
		if f.P != p {
			t.Errorf("fold p = %d", f.P)
		}
		if h := nob.H(tr, p, 1); h <= 0 {
			t.Errorf("H(%d) = %v", p, h)
		}
		if a := nob.Wiseness(tr, p); a != 1 {
			t.Errorf("α(%d) = %v, want 1 (complement exchange + dummies)", p, a)
		}
		if g := nob.Fullness(tr, p); g <= 0 {
			t.Errorf("γ(%d) = %v", p, g)
		}
	}
	for _, m := range []nob.DBSP{nob.Mesh(1, 16), nob.Mesh(2, 16), nob.Hypercube(16), nob.FatTree(16), nob.Uniform(16, 1, 2)} {
		if d := nob.CommTime(tr, m); d <= 0 {
			t.Errorf("%s: D = %v", m.Name, d)
		}
		if err := m.Admissible(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// pairCounter is a sink written against the facade alone, as a module
// outside this repository would: it keeps each superstep's pair count.
type pairCounter struct{ pairs []int }

func (c *pairCounter) BeginTrace(v, logV int) error { return nil }

func (c *pairCounter) WriteStep(rec nob.StepRec) error {
	n := 0
	if rec.Pairs != nil {
		n = rec.Pairs.Len()
	}
	c.pairs = append(c.pairs, n)
	return nil
}

func (c *pairCounter) EndTrace(runErr error) error { return runErr }

var _ nob.TraceSink = (*pairCounter)(nil)

// TestFacadeRecordOption covers RunOpt: recorded pairs reach a sink
// declared with facade names only, and recording without one is
// rejected.
func TestFacadeRecordOption(t *testing.T) {
	prog := func(vp *nob.VP[int]) {
		vp.Send((vp.ID()+1)%4, 0)
		vp.Sync(0)
	}
	var c pairCounter
	if _, err := nob.RunOpt(4, prog, nob.RunOptions{RecordMessages: true, Sink: &c}); err != nil {
		t.Fatal(err)
	}
	if len(c.pairs) != 1 || c.pairs[0] != 4 {
		t.Errorf("pairs per step = %v, want [4]", c.pairs)
	}
	if _, err := nob.RunOpt(4, prog, nob.RunOptions{RecordMessages: true}); err == nil {
		t.Error("RecordMessages without a Sink: accepted")
	}
}

// TestRootRegistryReExports asserts that importing the root package alone
// is enough to see the paper's built-in algorithms in the open registry
// (the root package blank-imports their packages), and that a lookup
// through the re-exported API can run one.
func TestRootRegistryReExports(t *testing.T) {
	all := nob.Algorithms()
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name] = true
	}
	for _, want := range []string{"matmul", "fft", "sort", "stencil1", "broadcast-tree", "prefix-tree"} {
		if !names[want] {
			t.Errorf("built-in %q not visible through the root package", want)
		}
	}
	a, ok := nob.AlgorithmByName("fft")
	if !ok {
		t.Fatal("AlgorithmByName(fft) failed")
	}
	run, err := a.Run(t.Context(), nob.Spec{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace == nil || run.Trace.V != 64 {
		t.Fatalf("unexpected run result %+v", run)
	}
	var se *nob.SizeError
	if err := a.ValidSize(65); !errors.As(err, &se) {
		t.Errorf("ValidSize(65) = %v, want a *SizeError", err)
	}
}

// TestFacadeStreamedMetrics: a run streamed into a sink returns a Trace
// whose metrics equal those of the same run kept in memory.
func TestFacadeStreamedMetrics(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    int
	}{{"fft", 256}, {"sort", 64}, {"stencil2", 8}} {
		a, ok := nob.AlgorithmByName(tc.name)
		if !ok {
			t.Fatalf("%s: not registered", tc.name)
		}
		mem, err := a.Run(ctx, nob.Spec{}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := a.Run(ctx, nob.Spec{Sink: &pairCounter{}}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for p := 2; p <= mem.Trace.V; p *= 2 {
			if got, want := nob.H(streamed.Trace, p, 0), nob.H(mem.Trace, p, 0); got != want {
				t.Errorf("%s n=%d: streamed H(%d) = %v, in memory %v", tc.name, tc.n, p, got, want)
			}
		}
	}
}
