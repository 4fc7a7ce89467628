// Package matmul implements the network-oblivious matrix-multiplication
// algorithms of Section 4.1 of the paper.
//
// The n-MM problem multiplies two √n×√n matrices over a semiring (only
// Add/Mul, no inverses — the class for which Kerr's Ω(n^{3/2})
// multiplicative-term bound and the Scquizzato–Silvestri communication
// bound hold).  The network-oblivious algorithm is specified on M(n): one
// virtual processor per matrix entry.
//
// Two variants are provided:
//
//   - Multiply: the recursive 8-way algorithm (Theorem 4.2), with
//     H(n,p,σ) = O(n/p^{2/3} + σ·log p) and a Θ(n^{1/3}) per-VP memory
//     blow-up; Θ(1)-optimal for σ = O(n/(p^{2/3} log p)).
//   - MultiplySpaceEfficient: the 4-segment, two-round variant
//     (Section 4.1.1) with O(1) memory blow-up and
//     H(n,p,σ) = O(n/√p + σ·√p); Θ(1)-optimal among constant-memory
//     algorithms (Irony–Toledo–Tiskin bound).
package matmul

import (
	"fmt"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Semiring supplies the two operations the algorithms are allowed to use.
// Add must have Zero as neutral element.
type Semiring struct {
	Add  func(a, b int64) int64
	Mul  func(a, b int64) int64
	Zero int64
}

// Plus is the ordinary (+, ×, 0) semiring on int64.
func Plus() Semiring {
	return Semiring{
		Add:  func(a, b int64) int64 { return a + b },
		Mul:  func(a, b int64) int64 { return a * b },
		Zero: 0,
	}
}

// Tropical is the (min, +, +∞) semiring; matrix powers over it compute
// shortest paths, exercising the "semiring only" restriction of the class.
func Tropical() Semiring {
	const inf = int64(1) << 40
	return Semiring{
		Add: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
		Mul:  func(a, b int64) int64 { return a + b },
		Zero: inf,
	}
}

// Options is the unified run configuration (engine, recording, wiseness
// dummies, cancellation).  The semiring is an explicit argument of the
// *Semiring entry points; the plain entry points use Plus().
type Options = alg.Spec

// Result carries the product and the communication trace of the run.
type Result struct {
	// C is the s×s product matrix, row-major.
	C []int64
	// Trace is the recorded communication of the M(n) execution.
	Trace *core.Trace
	// PeakEntries is the maximum number of matrix entries simultaneously
	// held by any VP (measures the memory blow-up: Θ(n^{1/3}) for the
	// 8-way algorithm, O(log n) for the space-efficient one).
	PeakEntries int
}

// payload is the message type of both algorithms.
type payload struct {
	kind byte  // 'a', 'b' input entries; 'm' product partials
	f    int32 // flattened index within the destination submatrix
	v    int64
}

// SeqMultiply is the sequential reference: the straightforward semiring
// triple loop.
func SeqMultiply(s int, a, b []int64, sr Semiring) []int64 {
	c := make([]int64, s*s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			acc := sr.Zero
			for k := 0; k < s; k++ {
				acc = sr.Add(acc, sr.Mul(a[i*s+k], b[k*s+j]))
			}
			c[i*s+j] = acc
		}
	}
	return c
}

func validate(s int, a, b []int64) error {
	if s < 1 || s&(s-1) != 0 {
		return fmt.Errorf("matmul: matrix side %d must be a positive power of two", s)
	}
	if len(a) != s*s || len(b) != s*s {
		return fmt.Errorf("matmul: need %d entries, got |A|=%d |B|=%d", s*s, len(a), len(b))
	}
	return nil
}

// Multiply runs the recursive 8-way network-oblivious n-MM algorithm on
// M(n), n = s², over the ordinary (+, ×, 0) semiring, and returns the
// product together with its communication trace.  Input and output
// matrices are evenly distributed: VP r holds A[r], B[r] and produces
// C[r].
//
//nob:deterministic
func Multiply(s int, a, b []int64, opts Options) (*Result, error) {
	return MultiplySemiring(s, a, b, Plus(), opts)
}

// MultiplySemiring is Multiply over an arbitrary semiring (the class the
// Section 4.1 lower bounds hold for — only Add/Mul, no inverses).
func MultiplySemiring(s int, a, b []int64, sr Semiring, opts Options) (*Result, error) {
	if err := validate(s, a, b); err != nil {
		return nil, err
	}
	n := s * s
	c := make([]int64, n)
	peaks := make([]int, n)

	prog := func(vp *core.VP[payload]) {
		w := &worker{vp: vp, sr: sr, wise: opts.Wise, peak: &peaks[vp.ID()]}
		myC := w.rec8(0, vp.V(), s, []int64{a[vp.ID()]}, []int64{b[vp.ID()]})
		c[vp.ID()] = myC[0]
	}
	tr, err := core.RunOpt(n, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	res := &Result{C: c, Trace: tr}
	for _, p := range peaks {
		if p > res.PeakEntries {
			res.PeakEntries = p
		}
	}
	return res, nil
}

// worker bundles the per-VP state of a run.
type worker struct {
	vp   *core.VP[payload]
	sr   Semiring
	wise bool
	held int // currently held matrix entries
	peak *int
}

func (w *worker) hold(d int) {
	w.held += d
	if w.held > *w.peak {
		*w.peak = w.held
	}
}

// dummies applies the paper's wiseness trick (core.WisenessDummies) when
// the run is configured as wise.
func (w *worker) dummies(label, count int) {
	if w.wise {
		core.WisenessDummies(w.vp, label, count)
	}
}

// rec8 multiplies the q×q submatrices held by the segment
// [base, base+size): each VP holds e = q²/size consecutive row-major
// entries of A' and B' (VP at segment position t holds flats
// [t·e, (t+1)·e)) and returns its e entries of the product.
func (w *worker) rec8(base, size, q int, myA, myB []int64) []int64 {
	w.hold(2 * len(myA))
	defer w.hold(-2 * len(myA))
	m := q * q
	e := m / size
	if size == 1 {
		return SeqMultiply(q, myA, myB, w.sr)
	}
	if size < 8 {
		return w.gatherSolve(base, size, q, myA, myB)
	}

	vp := w.vp
	label := vp.LogV() - core.Log2(size)
	pos := vp.ID() - base
	myOff := pos * e
	size8 := size / 8
	e2 := 2 * e
	q2 := q / 2

	// Step 1: replicate and distribute quadrants to the eight segments
	// S_{hkl}; segment index is 4h+2k+l.  A_{hl} goes to S_{hkl} for both
	// k; B_{lk} to S_{hkl} for both h.
	for fi, val := range myA {
		f := myOff + fi
		i, j := f/q, f%q
		h, l := i/q2, j/q2
		lf := (i%q2)*q2 + (j % q2)
		for k := 0; k <= 1; k++ {
			idx := 4*h + 2*k + l
			vp.Send(base+idx*size8+lf/e2, payload{kind: 'a', f: int32(lf), v: val})
		}
	}
	for fi, val := range myB {
		f := myOff + fi
		i, j := f/q, f%q
		l, k := i/q2, j/q2
		lf := (i%q2)*q2 + (j % q2)
		for h := 0; h <= 1; h++ {
			idx := 4*h + 2*k + l
			vp.Send(base+idx*size8+lf/e2, payload{kind: 'b', f: int32(lf), v: val})
		}
	}
	w.dummies(label, e)
	vp.Sync(label)

	idx := pos / size8
	h, k, l := idx/4, (idx/2)%2, idx%2
	pos2 := pos % size8
	childOff := pos2 * e2
	childA := make([]int64, e2)
	childB := make([]int64, e2)
	for _, msg := range vp.Inbox() {
		switch msg.Payload.kind {
		case 'a':
			childA[int(msg.Payload.f)-childOff] = msg.Payload.v
		case 'b':
			childB[int(msg.Payload.f)-childOff] = msg.Payload.v
		default:
			panic("matmul: unexpected message kind in step 1")
		}
	}

	// Step 2: recurse within the segment.
	myM := w.rec8(base+idx*size8, size8, q2, childA, childB)

	// Step 3: route the partial products M_{hkl} to the VPs responsible
	// for C' and add the two partials per entry.
	for fi, val := range myM {
		lf := childOff + fi
		i2, j2 := lf/q2, lf%q2
		pf := (h*q2+i2)*q + (k*q2 + j2)
		vp.Send(base+pf/e, payload{kind: 'm', f: int32(pf), v: val})
	}
	_ = l
	w.dummies(label, e)
	vp.Sync(label)

	myC := make([]int64, e)
	for fi := range myC {
		myC[fi] = w.sr.Zero
	}
	for _, msg := range vp.Inbox() {
		if msg.Payload.kind != 'm' {
			panic("matmul: unexpected message kind in step 3")
		}
		fi := int(msg.Payload.f) - myOff
		myC[fi] = w.sr.Add(myC[fi], msg.Payload.v)
	}
	return myC
}

// gatherSolve handles segments of 2 or 4 VPs (which arise when log n is
// not a multiple of 3): the whole subproblem is all-gathered, solved
// locally by every member, and each keeps its slice.  The superstep degree
// is O(m) = O(e), preserving the level's O(2^i) degree.
func (w *worker) gatherSolve(base, size, q int, myA, myB []int64) []int64 {
	vp := w.vp
	m := q * q
	e := m / size
	label := vp.LogV() - core.Log2(size)
	pos := vp.ID() - base
	myOff := pos * e
	for fi, val := range myA {
		for t := 0; t < size; t++ {
			if t != pos {
				vp.Send(base+t, payload{kind: 'a', f: int32(myOff + fi), v: val})
			}
		}
	}
	for fi, val := range myB {
		for t := 0; t < size; t++ {
			if t != pos {
				vp.Send(base+t, payload{kind: 'b', f: int32(myOff + fi), v: val})
			}
		}
	}
	w.dummies(label, e)
	vp.Sync(label)

	fullA := make([]int64, m)
	fullB := make([]int64, m)
	w.hold(2 * m)
	copy(fullA[myOff:], myA)
	copy(fullB[myOff:], myB)
	for _, msg := range vp.Inbox() {
		switch msg.Payload.kind {
		case 'a':
			fullA[msg.Payload.f] = msg.Payload.v
		case 'b':
			fullB[msg.Payload.f] = msg.Payload.v
		}
	}
	full := SeqMultiply(q, fullA, fullB, w.sr)
	w.hold(-2 * m)
	out := make([]int64, e)
	copy(out, full[myOff:myOff+e])
	return out
}
