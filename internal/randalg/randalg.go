// Package randalg generates random static algorithms for the specification
// model M(v).  It is used by property-based tests to exercise the metric
// machinery (Lemma 3.1, wiseness and fullness bounds, folding consistency)
// on arbitrary communication patterns, not just the hand-written
// algorithms.
package randalg

import (
	"math/rand"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// StepSpec describes one superstep of a generated algorithm.
type StepSpec struct {
	// Label is the label of the terminating sync.
	Label int
	// Msgs holds (src, dst) pairs; every pair lies within a single
	// Label-cluster by construction.
	Msgs [][2]int
}

// Spec is a complete randomly generated static algorithm.
type Spec struct {
	V     int
	Steps []StepSpec
}

// Random generates a random static algorithm on M(v) with up to maxSteps
// supersteps and up to maxMsgsPerVP messages per VP per superstep.  v must
// be a power of two >= 2.
func Random(rng *rand.Rand, v, maxSteps, maxMsgsPerVP int) Spec {
	logV := core.Log2(v)
	labelBound := logV
	if labelBound < 1 {
		labelBound = 1
	}
	steps := 1 + rng.Intn(maxSteps)
	spec := Spec{V: v}
	for t := 0; t < steps; t++ {
		label := rng.Intn(labelBound)
		size := v >> uint(label)
		st := StepSpec{Label: label}
		for src := 0; src < v; src++ {
			first := src / size * size
			k := rng.Intn(maxMsgsPerVP + 1)
			for m := 0; m < k; m++ {
				dst := first + rng.Intn(size)
				st.Msgs = append(st.Msgs, [2]int{src, dst})
			}
		}
		spec.Steps = append(spec.Steps, st)
	}
	return spec
}

// Program compiles the spec into an executable VP program.  Payloads are
// the source VP index, so delivery can be sanity-checked.
func (s Spec) Program() core.Program[int] {
	// Pre-index messages by source for O(1) lookup inside the program.
	bySrc := make([][][]int, len(s.Steps)) // [step][src] -> dsts
	for t, st := range s.Steps {
		bySrc[t] = make([][]int, s.V)
		for _, m := range st.Msgs {
			bySrc[t][m[0]] = append(bySrc[t][m[0]], m[1])
		}
	}
	return func(vp *core.VP[int]) {
		for t, st := range s.Steps {
			for _, dst := range bySrc[t][vp.ID()] {
				vp.Send(dst, vp.ID())
			}
			vp.Sync(st.Label)
		}
	}
}

// Run executes the generated algorithm and returns its trace.
func (s Spec) Run() (*core.Trace, error) {
	return core.Run(s.V, s.Program())
}

// RunSpec is Run with the unified run configuration (engine, message
// recording, cancellation).
func (s Spec) RunSpec(spec alg.Spec) (*core.Trace, error) {
	return core.RunOpt(s.V, s.Program(), spec.RunOptions())
}

// ExpectedDegree computes, independently of the runtime, the degree
// h_s(n, p) of step t under folding on p processors, by brute force over
// the message list.  Used to cross-check the runtime's incremental
// accounting.
func (s Spec) ExpectedDegree(t, p int) int64 {
	lp := core.Log2(p)
	logV := core.Log2(s.V)
	shift := uint(logV - lp)
	sent := make(map[int]int64)
	recv := make(map[int]int64)
	for _, m := range s.Steps[t].Msgs {
		sb, db := m[0]>>shift, m[1]>>shift
		if sb != db {
			sent[sb]++
			recv[db]++
		}
	}
	var h int64
	for _, c := range sent {
		if c > h {
			h = c
		}
	}
	for _, c := range recv {
		if c > h {
			h = c
		}
	}
	return h
}
