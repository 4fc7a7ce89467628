// Package fft implements the network-oblivious fast Fourier transform of
// Section 4.2 of the paper, plus the straightforward butterfly algorithm
// as the suboptimal oblivious baseline it improves upon.
//
// The n-FFT problem evaluates the n-input FFT DAG; the network-oblivious
// algorithm is specified on M(n) (one value per VP) and recursively
// decomposes the DAG into √n-input subDAGs separated by a matrix
// transposition, achieving H(n,p,σ) = O((n/p + σ)·log n / log(n/p)) —
// Θ(1)-optimal for σ = O(n/p) (Theorem 4.5, Corollary 4.6).
//
// Substitution note (documented in DESIGN.md): we implement the recursion
// in the four-step (transpose–FFT–twiddle–transpose–FFT–transpose) form
// with natural-order inputs and outputs.  The paper's DAG formulation uses
// digit-reversed conventions and a single transposition per level; ours
// uses three, which changes only the constant of the O(n/p + σ) term per
// level and none of the optimality claims, while keeping the index
// arithmetic verifiable against a direct O(n²) DFT.
//
// TransformIterative evaluates the DAG level by level (one superstep per
// butterfly stage).  It is also network-oblivious but pays
// H = Θ((n/p + σ)·log p), a log p·log(n/p)/log n factor worse — the
// quantitative motivation for the recursive algorithm.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Options is the unified run configuration (engine, recording, wiseness
// dummies, cancellation).
type Options = alg.Spec

// Result carries the transform output and the communication trace.
type Result struct {
	// Out[k] = Σ_j x[j]·e^{-2πi·jk/n}, natural order.
	Out []complex128
	// Trace is the recorded communication of the M(n) execution.
	Trace *core.Trace
}

// twiddle returns ω_m^t = e^{-2πi·t/m}.
func twiddle(m, t int) complex128 {
	return cmplx.Exp(complex(0, -2*math.Pi*float64(t)/float64(m)))
}

// SeqFFT is an in-place iterative radix-2 reference, used to validate the
// parallel algorithms at sizes where the O(n²) DFT is too slow.
func SeqFFT(x []complex128) []complex128 {
	n := len(x)
	if n&(n-1) != 0 {
		panic("fft: SeqFFT needs a power-of-two length")
	}
	out := make([]complex128, n)
	logN := core.Log2(n)
	for i, v := range x {
		out[reverseBits(i, logN)] = v
	}
	for s := 1; s <= logN; s++ {
		m := 1 << uint(s)
		for k := 0; k < n; k += m {
			for j := 0; j < m/2; j++ {
				w := twiddle(m, j)
				t := w * out[k+j+m/2]
				u := out[k+j]
				out[k+j] = u + t
				out[k+j+m/2] = u - t
			}
		}
	}
	return out
}

func reverseBits(i, width int) int {
	return int(bits.Reverse64(uint64(i)) >> uint(64-width))
}

func validate(x []complex128) error {
	n := len(x)
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("fft: input length %d must be a positive power of two", n)
	}
	return nil
}

// Transform runs the recursive network-oblivious n-FFT on M(n), n = len(x).
//
//nob:deterministic
func Transform(x []complex128, opts Options) (*Result, error) {
	if err := validate(x); err != nil {
		return nil, err
	}
	n := len(x)
	out := make([]complex128, n)
	prog := func(vp *core.VP[complex128]) {
		out[vp.ID()] = fftRec(vp, 0, n, x[vp.ID()], opts.Wise)
	}
	tr, err := core.RunOpt(n, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Out: out, Trace: tr}, nil
}

// permute routes val according to dst within the current segment and
// returns the value this VP receives.  Fixed points stay local (no
// message).
func permute(vp *core.VP[complex128], label, dst int, val complex128, wise bool) complex128 {
	self := dst == vp.ID()
	if !self {
		vp.Send(dst, val)
	}
	if wise {
		core.WisenessDummies(vp, label, 1)
	}
	vp.Sync(label)
	if self {
		return val
	}
	got, ok := vp.Receive()
	if !ok {
		panic("fft: permutation delivered no value")
	}
	return got
}

// fftRec computes the size-point DFT of the values held one-per-VP by the
// segment [base, base+size) in natural order (VP at segment position t
// holds x[t] on entry and X[t] on return).
func fftRec(vp *core.VP[complex128], base, size int, val complex128, wise bool) complex128 {
	if size == 1 {
		return val
	}
	label := vp.LogV() - core.Log2(size)
	pos := vp.ID() - base
	if size == 2 {
		other := base + 1 - pos
		vp.Send(other, val)
		if wise {
			core.WisenessDummies(vp, label, 1)
		}
		vp.Sync(label)
		got, ok := vp.Receive()
		if !ok {
			panic("fft: butterfly exchange delivered no value")
		}
		if pos == 0 {
			return val + got // X[0] = x0 + x1
		}
		return got - val // X[1] = x0 - x1
	}

	// Split size = n1·n2 with n2 = 2^⌈log size/2⌉ (the paper's uneven
	// generalization for log size odd).
	lsz := core.Log2(size)
	n2 := 1 << uint((lsz+1)/2)
	n1 := size / n2

	// T1: gather columns; pos j2·n1+j1 → j1·n2+j2.
	j2, j1 := pos/n1, pos%n1
	val = permute(vp, label, base+j1*n2+j2, val, wise)

	// R1: n1 independent n2-point DFTs on consecutive subsegments.
	f := vp.ID() - base
	val = fftRec(vp, base+f/n2*n2, n2, val, wise)

	// Twiddle: position j1·n2+k2 scales by ω_size^{j1·k2}.
	j1, k2 := f/n2, f%n2
	val *= twiddle(size, j1*k2)

	// T2: regroup by k2; pos j1·n2+k2 → k2·n1+j1.
	val = permute(vp, label, base+k2*n1+j1, val, wise)

	// R2: n2 independent n1-point DFTs.
	f = vp.ID() - base
	val = fftRec(vp, base+f/n1*n1, n1, val, wise)

	// T3: natural-order output; pos k2·n1+k1 → k1·n2+k2.
	k2, k1 := f/n1, f%n1
	return permute(vp, label, base+k1*n2+k2, val, wise)
}

// TransformIterative evaluates the FFT DAG one butterfly level per
// superstep (decimation in frequency), followed by a bit-reversal
// unscrambling superstep.  Network-oblivious but only
// H = Θ((n/p + σ)·log p): the baseline of experiment E3.
//
//nob:deterministic
func TransformIterative(x []complex128, opts Options) (*Result, error) {
	if err := validate(x); err != nil {
		return nil, err
	}
	n := len(x)
	logN := core.Log2(n)
	out := make([]complex128, n)
	prog := func(vp *core.VP[complex128]) {
		val := x[vp.ID()]
		if n == 1 {
			out[0] = val
			return
		}
		w := vp.ID()
		for l := logN - 1; l >= 0; l-- {
			// Stage pairs indices differing in bit l; partners share
			// the top logN-l-1 bits, so the superstep label is exactly
			// that.
			label := logN - l - 1
			partner := w ^ (1 << uint(l))
			vp.Send(partner, val)
			if opts.Wise {
				core.WisenessDummies(vp, label, 1)
			}
			vp.Sync(label)
			got, ok := vp.Receive()
			if !ok {
				panic("fft: iterative stage delivered no value")
			}
			if w&(1<<uint(l)) == 0 {
				val = val + got
			} else {
				val = (got - val) * twiddle(1<<uint(l+1), w&(1<<uint(l)-1))
			}
		}
		// Unscramble: DIF leaves X[rev(w)] at position w.
		dst := reverseBits(w, logN)
		if dst != w {
			vp.Send(dst, val)
		}
		if opts.Wise {
			core.WisenessDummies(vp, 0, 1)
		}
		vp.Sync(0)
		if dst == w {
			out[w] = val
		} else {
			got, ok := vp.Receive()
			if !ok {
				panic("fft: unscramble delivered no value")
			}
			out[w] = got
		}
	}
	tr, err := core.RunOpt(n, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Out: out, Trace: tr}, nil
}
