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
	return labelledProgram(seed, labels)
}

// labelledProgram is randomProgram with a given label sequence.
func labelledProgram(seed int64, labels []int) core.Program[int] {
	return func(vp *core.VP[int]) {
		for s, label := range labels {
			labelledStep(vp, seed, s, label)
			vp.Sync(label)
		}
	}
}

// labelledSteps is labelledProgram in step form.
func labelledSteps(seed int64, labels []int) core.StepFunc[int] {
	return func(vp *core.VP[int]) (int, bool) {
		s := vp.Superstep()
		if s == len(labels) {
			return 0, false
		}
		labelledStep(vp, seed, s, labels[s])
		return labels[s], true
	}
}

// labelledStep is the work of superstep s of labelledProgram, up to its
// Sync.
func labelledStep(vp *core.VP[int], seed int64, s, label int) {
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
			var ref tracetest.Collector
			opts := core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}, Sink: &ref}
			if _, err := core.RunOpt(v, prog, opts); err != nil {
				t.Fatalf("v=%d trial=%d: goroutine engine: %v", v, trial, err)
			}
			want := tracetest.Canonical(t, &ref)
			for _, workers := range []int{0, 1, 2, 3, 8, 64} {
				var got tracetest.Collector
				opts.Engine, opts.Sink = core.BlockEngine{Workers: workers}, &got
				if _, err := core.RunOpt(v, prog, opts); err != nil {
					t.Fatalf("v=%d trial=%d workers=%d: block engine: %v", v, trial, workers, err)
				}
				if g := tracetest.Canonical(t, &got); !bytes.Equal(want, g) {
					t.Errorf("v=%d trial=%d workers=%d: trace mismatch\ngoroutine: %s\nblock:     %s", v, trial, workers, want, g)
				}
			}
		}
	}
}

// TestStepFormEquivalence: a step-form program produces the trace of
// its Program form.  The reference is the Program on the GoroutineEngine;
// the step form runs through the GoroutineEngine's Sync loop and through
// the BlockEngine's direct calls at several worker counts.
func TestStepFormEquivalence(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8, 16, 64, 256} {
		labelBound := max(core.Log2(v), 1)
		for trial := 0; trial < 4; trial++ {
			seed := int64(v*100 + trial)
			rng := rand.New(rand.NewSource(seed))
			labels := make([]int, 1+trial)
			for s := range labels {
				labels[s] = rng.Intn(labelBound)
			}
			var ref tracetest.Collector
			opts := core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}, Sink: &ref}
			if _, err := core.RunOpt(v, labelledProgram(seed, labels), opts); err != nil {
				t.Fatalf("v=%d trial=%d: program form: %v", v, trial, err)
			}
			want := tracetest.Canonical(t, &ref)
			engines := []core.Engine{core.GoroutineEngine{}, core.BlockEngine{Workers: 1}, core.BlockEngine{Workers: 2}, core.BlockEngine{Workers: 3}, core.BlockEngine{Workers: 8}}
			for _, eng := range engines {
				var got tracetest.Collector
				opts.Engine, opts.Sink = eng, &got
				if _, err := core.RunSteps(v, labelledSteps(seed, labels), opts); err != nil {
					t.Fatalf("v=%d trial=%d %s %v: step form: %v", v, trial, eng.Name(), eng, err)
				}
				if g := tracetest.Canonical(t, &got); !bytes.Equal(want, g) {
					t.Errorf("v=%d trial=%d %s %v: step-form trace differs\nprogram: %s\nsteps:   %s", v, trial, eng.Name(), eng, want, g)
				}
			}
		}
	}
}

// TestPointerEngines: engines passed by pointer (which also satisfy the
// sealed interface) must behave exactly like their value forms.
func TestPointerEngines(t *testing.T) {
	prog := randomProgram(7, 8, 2)
	var ref tracetest.Collector
	if _, err := core.RunOpt(8, prog, core.Options{RecordMessages: true, Engine: core.GoroutineEngine{}, Sink: &ref}); err != nil {
		t.Fatal(err)
	}
	want := tracetest.Canonical(t, &ref)
	for _, eng := range []core.Engine{&core.GoroutineEngine{}, &core.BlockEngine{}, &core.BlockEngine{Workers: 2}} {
		var got tracetest.Collector
		if _, err := core.RunOpt(8, prog, core.Options{RecordMessages: true, Engine: eng, Sink: &got}); err != nil {
			t.Fatalf("%s (pointer): %v", eng.Name(), err)
		}
		if !bytes.Equal(want, tracetest.Canonical(t, &got)) {
			t.Errorf("%s (pointer): trace mismatch", eng.Name())
		}
	}
}
