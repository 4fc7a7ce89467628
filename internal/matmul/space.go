package matmul

import (
	"netoblivious/internal/core"
)

// MultiplySpaceEfficient runs the space-efficient network-oblivious n-MM
// algorithm of Section 4.1.1 on M(n), n = s²: the VPs are recursively
// divided into four segments that solve the eight quadrant subproblems in
// two rounds, keeping exactly one entry of A, B and C per VP at every
// level (O(1) memory blow-up) at the price of communication complexity
// H(n,p,σ) = O(n/√p + σ·√p).
//
// Round 1 computes A00·B00, A01·B11, A11·B10, A10·B01 (one per segment);
// round 2 computes A01·B10, A00·B01, A10·B00, A11·B11.  Segment 2h+k is
// responsible for output quadrant C_{hk} in both rounds; the A-quadrant it
// consumes in round r is A_{h,l} with l = h⊕k⊕r.
//
//nob:deterministic
func MultiplySpaceEfficient(s int, a, b []int64, opts Options) (*Result, error) {
	return MultiplySpaceEfficientSemiring(s, a, b, Plus(), opts)
}

// MultiplySpaceEfficientSemiring is MultiplySpaceEfficient over an
// arbitrary semiring.
func MultiplySpaceEfficientSemiring(s int, a, b []int64, sr Semiring, opts Options) (*Result, error) {
	if err := validate(s, a, b); err != nil {
		return nil, err
	}
	n := s * s
	c := make([]int64, n)
	peaks := make([]int, n)

	prog := func(vp *core.VP[payload]) {
		w := &worker{vp: vp, sr: sr, wise: opts.Wise, peak: &peaks[vp.ID()]}
		c[vp.ID()] = w.rec4(0, vp.V(), s, a[vp.ID()], b[vp.ID()])
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

// rec4 multiplies the q×q submatrices distributed one entry per VP over
// the segment [base, base+size), size = q², and returns this VP's product
// entry.  The VP at segment position t holds entry t (row-major flat).
func (w *worker) rec4(base, size, q int, myA, myB int64) int64 {
	w.hold(2)
	defer w.hold(-2)
	if size == 1 {
		return w.sr.Mul(myA, myB)
	}
	vp := w.vp
	label := vp.LogV() - core.Log2(size)
	pos := vp.ID() - base
	size4 := size / 4
	q2 := q / 2

	i, j := pos/q, pos%q
	aQuad := [2]int{i / q2, j / q2} // my A entry lives in quadrant (a0, a1)
	bQuad := [2]int{i / q2, j / q2} // same position, B quadrant
	lf := (i%q2)*q2 + (j % q2)      // flat index within my quadrant
	myC := w.sr.Zero

	for r := 0; r <= 1; r++ {
		// Route my A entry to the segment consuming A_{h,l} this round:
		// the segment 2h+k with h = aQuad[0], l = aQuad[1], k = h⊕l⊕r.
		{
			h, l := aQuad[0], aQuad[1]
			k := h ^ l ^ r
			seg := 2*h + k
			vp.Send(base+seg*size4+lf, payload{kind: 'a', f: int32(lf), v: myA})
		}
		// Route my B entry: B_{l,k} is consumed by segment 2h+k with
		// l = bQuad[0], k = bQuad[1], h = l⊕k⊕r.
		{
			l, k := bQuad[0], bQuad[1]
			h := l ^ k ^ r
			seg := 2*h + k
			vp.Send(base+seg*size4+lf, payload{kind: 'b', f: int32(lf), v: myB})
		}
		w.dummies(label, 1)
		vp.Sync(label)

		var childA, childB int64
		gotA, gotB := false, false
		for _, msg := range vp.Inbox() {
			switch msg.Payload.kind {
			case 'a':
				childA, gotA = msg.Payload.v, true
			case 'b':
				childB, gotB = msg.Payload.v, true
			}
		}
		if !gotA || !gotB {
			panic("matmul: space-efficient routing failed to deliver operands")
		}

		seg := pos / size4
		childPos := pos % size4
		m := w.rec4(base+seg*size4, size4, q2, childA, childB)

		// Combine: my segment produced a partial for C_{hk}; entry
		// childPos of the q2×q2 product maps to parent flat
		// (h·q2 + i')·q + (k·q2 + j').
		h, k := seg/2, seg%2
		i2, j2 := childPos/q2, childPos%q2
		pf := (h*q2+i2)*q + (k*q2 + j2)
		vp.Send(base+pf, payload{kind: 'm', f: int32(pf), v: m})
		w.dummies(label, 1)
		vp.Sync(label)

		got := false
		for _, msg := range vp.Inbox() {
			if msg.Payload.kind == 'm' {
				myC = w.sr.Add(myC, msg.Payload.v)
				got = true
			}
		}
		if !got {
			panic("matmul: space-efficient combine received no partial")
		}
	}
	return myC
}
