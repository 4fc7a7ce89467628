package main

import (
	"context"
	"fmt"

	nob "netoblivious"
	"netoblivious/alg"
)

// transposeAlgorithm builds the descriptor of an oblivious matrix
// transpose on M(n), n = s² with s a power of two: VP id holds entry
// (id/s, id%s) of a deterministic s×s matrix and sends it to the VP
// holding the transposed position, in a single 0-labeled superstep.
// Off-diagonal VPs route one message each and the wiseness dummies cover
// the diagonal, so the algorithm is (Θ(1), n)-wise; folded on M(p, σ)
// its communication complexity is H(n, p, σ) = Θ(n/p + σ).
//
// The run self-checks: it verifies the received values really are the
// transpose before returning the trace, so every surface that executes
// the algorithm also re-verifies it.
func transposeAlgorithm() nob.Algorithm {
	return nob.Algorithm{
		Name:    "transpose",
		Doc:     "user-defined oblivious matrix transpose; n = matrix entries (side² = n)",
		SizeDoc: "n = s² matrix entries with s a power of two: 4, 16, 64, 256, ...",
		Sizes:   []int{4, 16, 64, 1024},
		Valid:   alg.SquareOfPowerOfTwo(4),
		RunFn: func(ctx context.Context, spec nob.Spec, n int) (nob.AlgResult, error) {
			// Pin the wise form: a registry run must be a pure function of
			// (n, record) for the shared trace store's (algorithm, n) keying.
			spec.Wise = true
			s := alg.SquareSide(n)
			rng := alg.SeededRand()
			in := make([]int64, n)
			for i := range in {
				in[i] = rng.Int63n(1 << 30)
			}
			out := make([]int64, n)
			prog := func(vp *nob.VP[int64]) {
				id := vp.ID()
				i, j := id/s, id%s
				dst := j*s + i
				if dst != id {
					vp.Send(dst, in[id])
				}
				if spec.Wise {
					nob.WisenessDummies(vp, 0, 1)
				}
				vp.Sync(0)
				if dst == id {
					out[id] = in[id]
				} else if m, ok := vp.Receive(); ok {
					out[id] = m
				}
			}
			tr, err := nob.RunOpt(n, prog, spec.RunOptions())
			if err != nil {
				return nob.AlgResult{}, err
			}
			for i := 0; i < s; i++ {
				for j := 0; j < s; j++ {
					if out[i*s+j] != in[j*s+i] {
						return nob.AlgResult{}, fmt.Errorf("transpose: entry (%d,%d) is wrong", i, j)
					}
				}
			}
			return nob.AlgResult{Trace: tr}, nil
		},
	}
}

// The example registers its algorithm through the public API only — no
// package under internal/ knows the name "transpose", yet every surface
// below serves it.
func init() {
	if err := nob.RegisterAlgorithm(transposeAlgorithm()); err != nil {
		panic(err)
	}
}
