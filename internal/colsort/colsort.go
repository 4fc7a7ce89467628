// Package colsort implements the network-oblivious comparison-based
// sorting algorithm of Section 4.3 of the paper: a recursive version of
// Leighton's Columnsort specified on M(n), one key per virtual processor.
//
// The n keys are viewed as an r×s matrix stored column-major (column c
// occupies the r consecutively numbered VPs [c·r, (c+1)·r)).  Columnsort
// runs eight phases: odd phases sort every column recursively; even phases
// permute the matrix (2: transpose, 4: untranspose, 6: cyclic r/2-shift,
// 8: inverse shift with the paper's column-0 wrap convention folded in).
// Each permutation is a single 0-superstep of constant degree relative to
// the current segment; column sorts recurse on r = Θ(n^{2/3})-size
// segments, giving (Theorem 4.8)
//
//	H_sort(n, p, σ) = O((n/p + σ)·(log n/log(n/p))^{log_{3/2} 4})
//
// and Θ(1)-optimality for p = O(n^{1-δ}) (Corollary 4.9).
//
// Substitution note (see DESIGN.md): we choose the matrix shape to satisfy
// Leighton's classical sufficient condition r >= 2(s-1)² (instead of the
// paper's r >= s²) and implement phase 4 as the inverse transposition.
// s remains Θ(n^{1/3}), so the recurrence and all stated bounds are
// unchanged, and correctness follows from the classical analysis —
// validated here by 0-1-principle and randomized tests.  Segments of at
// most BaseSize VPs sort by an all-gather brute-force pass (one superstep
// of constant degree): every VP gathers the segment's keys into a scratch
// buffer it allocates once per run and sorts them locally.
package colsort

import (
	"cmp"
	"fmt"
	"slices"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Options is the unified run configuration (engine, recording, wiseness
// dummies, cancellation).
type Options = alg.Spec

// Result carries the sorted keys and the communication trace.
type Result struct {
	// Keys holds the input keys in nondecreasing order (ties broken by
	// original position, making the sort stable at the key level).
	Keys []int64
	// Trace is the recorded communication of the M(n) execution.
	Trace *core.Trace
}

// kv is a key with its original position as a tie-breaking tag, giving a
// total order even with duplicate keys (the paper assumes distinct keys;
// the tag removes the assumption).
type kv struct {
	key int64
	tag int32
}

// cmpKV orders kv by key, then tag, in the three-way form slices.SortFunc
// takes.
func cmpKV(a, b kv) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.tag, b.tag)
}

func (a kv) less(b kv) bool { return cmpKV(a, b) < 0 }

// Shape returns the r×s matrix shape used for a segment of the given size:
// s = 2^⌊(log₂ size − 1)/3⌋ and r = size/s, which satisfies r >= 2(s−1)²
// and r >= s for every power of two size >= 16.
func Shape(size int) (r, s int) {
	nu := core.Log2(size)
	sigma := (nu - 1) / 3
	if sigma < 1 {
		panic(fmt.Sprintf("colsort: no valid shape for size %d", size))
	}
	s = 1 << uint(sigma)
	return size / s, s
}

// Sort runs the network-oblivious Columnsort on M(n), n = len(keys),
// with the default brute-force base-case size of 8.
//
//nob:deterministic
func Sort(keys []int64, opts Options) (*Result, error) {
	return SortBase(keys, 0, opts)
}

// SortBase is Sort with an explicit base-case size: segments of at most
// base VPs sort by the all-gather brute-force pass.  base must be at
// least 8 (smaller segments cannot be split into a valid r×s shape);
// 0 means 8.  The knob exists for the base-case ablation benchmarks.
//
// Every VP allocates one scratch buffer of capacity min(base, n) per run,
// and all of its base-case supersteps gather and sort in it.
func SortBase(keys []int64, base int, opts Options) (*Result, error) {
	n := len(keys)
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("colsort: input length %d must be a positive power of two", n)
	}
	if base == 0 {
		base = 8
	}
	if base < 8 {
		return nil, fmt.Errorf("colsort: base size %d must be >= 8", base)
	}
	out := make([]int64, n)
	prog := func(vp *core.VP[kv]) {
		me := kv{key: keys[vp.ID()], tag: int32(vp.ID())}
		me = sortRec(vp, 0, vp.V(), me, opts.Wise, make([]kv, 0, min(base, n)))
		out[vp.ID()] = me.key
	}
	tr, err := core.RunOpt(n, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Keys: out, Trace: tr}, nil
}

// permute sends my key to position perm(pos) of the segment and returns
// the key received; perm must be a bijection on [0, size).
func permute(vp *core.VP[kv], base, label int, my kv, dst int, wise bool) kv {
	self := dst == vp.ID()
	if !self {
		vp.Send(dst, my)
	}
	if wise {
		core.WisenessDummies(vp, label, 1)
	}
	vp.Sync(label)
	if self {
		return my
	}
	got, ok := vp.Receive()
	if !ok {
		panic("colsort: permutation delivered no key")
	}
	return got
}

// sortRec sorts the keys held one-per-VP by the segment [base, base+size)
// in position order: on return, the VP at segment position t holds the key
// of rank t within the segment.  buf is the VP's base-case scratch buffer:
// segments of at most cap(buf) VPs sort in it by gatherSort.
func sortRec(vp *core.VP[kv], base, size int, my kv, wise bool, buf []kv) kv {
	if size == 1 {
		return my
	}
	if size <= cap(buf) {
		return gatherSort(vp, base, size, my, wise, buf)
	}
	label := vp.LogV() - core.Log2(size)
	r, s := Shape(size)

	column := func(my kv) kv {
		pos := vp.ID() - base
		cbase := base + pos/r*r
		return sortRec(vp, cbase, r, my, wise, buf)
	}

	// Phase 1: sort columns.
	my = column(my)
	// Phase 2: transpose — entry at column-major index g moves to the
	// position whose row-major index is g.
	pos := vp.ID() - base
	my = permute(vp, base, label, my, base+pos%s*r+pos/s, wise)
	// Phase 3: sort columns.
	my = column(my)
	// Phase 4: untranspose (inverse of phase 2).
	pos = vp.ID() - base
	my = permute(vp, base, label, my, base+(pos%r)*s+pos/r, wise)
	// Phase 5: sort columns.
	my = column(my)
	// Phase 6: cyclic shift down by half a column.
	pos = vp.ID() - base
	my = permute(vp, base, label, my, base+(pos+r/2)%size, wise)
	// Phase 7: sort columns.
	my = column(my)
	// Phase 8: inverse shift.  Column 0 holds the r/2 globally smallest
	// keys in its top half and the r/2 largest in its bottom half (the
	// paper's wrap convention): top-half keys stay, bottom-half keys go
	// to the tail of the segment; all other columns shift up by r/2.
	pos = vp.ID() - base
	var dst int
	switch {
	case pos >= r:
		dst = pos - r/2
	case pos < r/2:
		dst = pos
	default:
		dst = size - r + pos
	}
	return permute(vp, base, label, my, base+dst, wise)
}

// gatherSort sorts a segment of at most cap(buf) VPs with one all-gather
// superstep: every VP broadcasts its key within the segment, gathers the
// full set into its scratch buffer buf, sorts it locally and keeps the key
// matching its position.  It runs on every VP at every base-case
// superstep, so it must not allocate.
//
//nob:hotpath
func gatherSort(vp *core.VP[kv], base, size int, my kv, wise bool, buf []kv) kv {
	label := vp.LogV() - core.Log2(size)
	pos := vp.ID() - base
	for t := 0; t < size; t++ {
		if t != pos {
			vp.Send(base+t, my)
		}
	}
	if wise {
		core.WisenessDummies(vp, label, 1)
	}
	vp.Sync(label)
	all := buf[:0]
	all = append(all, my)
	for _, msg := range vp.Inbox() {
		all = append(all, msg.Payload)
	}
	if len(all) != size {
		//nolint:hotalloc // programmer error: the engine delivered a wrong key count; the cold panic path may box
		panic("colsort: gather received wrong key count")
	}
	slices.SortFunc(all, cmpKV)
	return all[pos]
}
