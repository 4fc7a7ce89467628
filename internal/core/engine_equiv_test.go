package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/tracetest"
)

// randomProgram builds a deterministic valid program: a common label
// sequence, and per-(VP, step) message patterns derived from a seed so
// every engine and worker count executes the identical algorithm.
func randomProgram(seed int64, v, steps int) core.Program[int] {
	labelBound := core.Log2(v)
	if labelBound < 1 {
		labelBound = 1
	}
	rng := rand.New(rand.NewSource(seed))
	labels := make([]int, steps)
	for s := range labels {
		labels[s] = rng.Intn(labelBound)
	}
	return func(vp *core.VP[int]) {
		for s, label := range labels {
			r := rand.New(rand.NewSource(seed ^ int64(vp.ID()*1000003+s*7919)))
			size := vp.ClusterSize(label)
			first := vp.ClusterFirst(label)
			for k := r.Intn(4); k > 0; k-- {
				dst := first + r.Intn(size)
				if r.Intn(5) == 0 {
					vp.SendDummy(dst)
				} else {
					vp.Send(dst, vp.ID()*100+k)
				}
			}
			// Drain a prefix of the inbox so Receive state is exercised.
			for i := r.Intn(3); i > 0; i-- {
				if _, ok := vp.Receive(); !ok {
					break
				}
			}
			vp.Sync(label)
		}
	}
}

// TestEngineEquivalenceRandom is the core equivalence property: random
// valid programs produce byte-identical traces on the GoroutineEngine and
// on the BlockEngine at every worker count.
func TestEngineEquivalenceRandom(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8, 16, 64, 256} {
		for trial := 0; trial < 4; trial++ {
			seed := int64(v*100 + trial)
			steps := 1 + trial
			prog := randomProgram(seed, v, steps)
			opts := core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}}
			ref, err := core.RunOpt(v, prog, opts)
			if err != nil {
				t.Fatalf("v=%d trial=%d: goroutine engine: %v", v, trial, err)
			}
			want := tracetest.Canonical(t, ref)
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				opts.Engine = core.BlockEngine{Workers: workers}
				got, err := core.RunOpt(v, prog, opts)
				if err != nil {
					t.Fatalf("v=%d trial=%d workers=%d: block engine: %v", v, trial, workers, err)
				}
				if g := tracetest.Canonical(t, got); !bytes.Equal(want, g) {
					t.Errorf("v=%d trial=%d workers=%d: trace mismatch\ngoroutine: %s\nblock:     %s", v, trial, workers, want, g)
				}
			}
		}
	}
}

// TestPointerEngines: engines passed by pointer (which also satisfy the
// sealed interface) must behave exactly like their value forms.
func TestPointerEngines(t *testing.T) {
	prog := randomProgram(7, 8, 2)
	ref, err := core.RunOpt(8, prog, core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}})
	if err != nil {
		t.Fatal(err)
	}
	want := tracetest.Canonical(t, ref)
	for _, eng := range []core.Engine{&core.GoroutineEngine{}, &core.BlockEngine{}, &core.BlockEngine{Workers: 2}} {
		got, err := core.RunOpt(8, prog, core.Options{RecordMessages: true, Engine: eng})
		if err != nil {
			t.Fatalf("%s (pointer): %v", eng.Name(), err)
		}
		if !bytes.Equal(want, tracetest.Canonical(t, got)) {
			t.Errorf("%s (pointer): trace mismatch", eng.Name())
		}
	}
}
