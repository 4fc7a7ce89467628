// Package prefix implements parallel prefix (scan) on the specification
// model M(v) — the substrate the ascend–descend protocol of Section 5
// relies on for assigning intermediate message destinations ("a prefix-like
// computation ... performed in O(log p) supersteps of constant degree,
// e.g., using a straightforward tree-based strategy [Ja'Ja' 1992]").
//
// Two network-oblivious variants are provided:
//
//   - ScanTree: the work-efficient up-sweep/down-sweep tree, 2·log v
//     supersteps of degree 1 and Θ(v) total messages;
//   - Scan: Hillis–Steele doubling, log v supersteps of degree 1 but
//     Θ(v·log v) total messages.
//
// Both are (Θ(1), p)-full for every p.  The registry runs ScanTree; Scan
// has no caller outside tests and is kept for their contrast, the
// BenchmarkAblationPrefix ablation of the root package's benchmarks.
package prefix

import (
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Op is an associative combiner with identity.
type Op struct {
	Combine  func(a, b int64) int64
	Identity int64
}

// Sum is the addition monoid.
//
//nob:deterministic
func Sum() Op {
	return Op{Combine: func(a, b int64) int64 { return a + b }, Identity: 0}
}

// Options is the unified run configuration (engine, recording,
// cancellation; the scans have no wise variant and ignore Spec.Wise).
type Options = alg.Spec

// Result carries the inclusive prefix and the trace.
type Result struct {
	// Prefix[i] = x_0 ⊕ x_1 ⊕ ... ⊕ x_i.
	Prefix []int64
	// Trace is the communication record of the M(v) run.
	Trace *core.Trace
}

func checkLen(xs []int64) error {
	if len(xs) < 1 || len(xs)&(len(xs)-1) != 0 {
		return fmt.Errorf("prefix: input length %d must be a positive power of two", len(xs))
	}
	return nil
}

// Scan computes the inclusive prefix with Hillis–Steele doubling: in
// superstep k every VP j sends its running value to VP j+2^k.  Because a
// j → j+2^k message can straddle any cluster boundary (consider
// j = v/2 − 2^k), every superstep must be labeled 0, so the folded cost is
// H = Θ((1+σ)·log n) for every p — strictly worse than ScanTree's
// Θ((1+σ)·log p).  The contrast between the two is a benchmark ablation.
//
//nob:testhook the doubling side of BenchmarkAblationPrefix and the prefix tests
func Scan(xs []int64, op Op, opts Options) (*Result, error) {
	if err := checkLen(xs); err != nil {
		return nil, err
	}
	v := len(xs)
	logV := core.Log2(v)
	out := make([]int64, v)
	prog := func(vp *core.VP[int64]) {
		val := xs[vp.ID()]
		for k := 0; k < logV; k++ {
			step := 1 << uint(k)
			if vp.ID()+step < v {
				vp.Send(vp.ID()+step, val)
			}
			vp.Sync(0)
			if vp.ID()-step >= 0 {
				m, ok := vp.Receive()
				if !ok {
					panic("prefix: doubling step delivered no value")
				}
				val = op.Combine(m, val)
			}
		}
		out[vp.ID()] = val
	}
	tr, err := core.RunOpt(v, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Prefix: out, Trace: tr}, nil
}

// ScanTree computes the inclusive prefix with the work-efficient
// up-sweep/down-sweep tree: 2·log v supersteps of degree 1, Θ(v) total
// messages.
//
//nob:deterministic
func ScanTree(xs []int64, op Op, opts Options) (*Result, error) {
	if err := checkLen(xs); err != nil {
		return nil, err
	}
	v := len(xs)
	logV := core.Log2(v)
	out := make([]int64, v)
	prog := func(vp *core.VP[int64]) {
		id := vp.ID()
		blockSum := xs[id]              // sum of my block during up-sweep
		leftSums := make([]int64, logV) // left-sibling sums received per level
		// Up-sweep: level l merges blocks of 2^{l-1} into blocks of 2^l.
		for l := 1; l <= logV; l++ {
			half := 1 << uint(l-1)
			full := 1 << uint(l)
			label := logV - l
			if id%full == half-1 {
				vp.Send(id+half, blockSum) // left-top informs right-top
			}
			vp.Sync(label)
			if id%full == full-1 {
				m, ok := vp.Receive()
				if !ok {
					panic("prefix: up-sweep delivered no value")
				}
				leftSums[l-1] = m
				blockSum = op.Combine(m, blockSum)
			}
		}
		// Down-sweep: propagate the exclusive "before" prefix.
		before := op.Identity
		for l := logV; l >= 1; l-- {
			half := 1 << uint(l-1)
			full := 1 << uint(l)
			label := logV - l
			if id%full == full-1 {
				vp.Send(id-half, before) // right-top informs left-top
			}
			vp.Sync(label)
			if id%full == half-1 {
				m, ok := vp.Receive()
				if !ok {
					panic("prefix: down-sweep delivered no value")
				}
				before = m
			} else if id%full == full-1 {
				before = op.Combine(before, leftSums[l-1])
			}
		}
		out[id] = op.Combine(before, xs[id])
	}
	tr, err := core.RunOpt(v, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Prefix: out, Trace: tr}, nil
}
