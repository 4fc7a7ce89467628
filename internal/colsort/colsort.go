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
// of constant degree): every VP gathers the segment's keys into its
// scratch buffer and sorts them locally.
//
// The superstep sequence is static — it depends on n alone — so the
// recursion runs once per run, as a schedule builder that unrolls it into
// one op per superstep, and the VPs execute the schedule in the step form
// of the core engine (core.StepFunc): a VP's state between supersteps is
// its key and its scratch buffer, kept in one slice for all VPs with the
// buffers carved from one arena, and no VP keeps a call stack across a
// barrier.  Batcher's bitonic network (SortBitonic) runs the same way.
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
// Every VP has one scratch buffer of capacity min(base, n), carved from
// one arena per run, and all of its base-case supersteps gather and sort
// in it.
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
	c := &columnsort{ops: schedule(n, base), vps: make([]sortVP, n), out: make([]int64, n), wise: opts.Wise}
	bc := min(base, n)
	arena := make([]kv, n*bc)
	for i := range c.vps {
		c.vps[i] = sortVP{my: kv{key: keys[i], tag: int32(i)}, buf: arena[i*bc : i*bc : (i+1)*bc]}
	}
	tr, err := core.RunSteps(n, c.step, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Keys: c.out, Trace: tr}, nil
}

// opKind names what a Columnsort superstep does to every segment.
type opKind uint8

const (
	opGather      opKind = iota // base case: all-gather and local sort
	opTranspose                 // phase 2
	opUntranspose               // phase 4
	opShift                     // phase 6
	opUnshift                   // phase 8
)

// op is one superstep of the schedule, the same on every VP: a gather of
// every segment of size VPs, or one permutation phase of every r×s
// segment of size = r·s VPs.  Segments are aligned, so a VP's segment
// starts at id &^ (size-1).
type op struct {
	kind  opKind
	label int
	size  int
	r, s  int
}

// schedule unrolls the recursion of Section 4.3 on M(n) into its
// supersteps.  A segment of more than base VPs sorts its columns (phases
// 1, 3, 5 and 7) and permutes its matrix (phases 2, 4, 6 and 8) in turn;
// all its columns, like all segments of one size, recurse in the same
// supersteps, so one op serves them all.
func schedule(n, base int) []op {
	logN := core.Log2(n)
	var ops []op
	var rec func(size int)
	rec = func(size int) {
		label := logN - core.Log2(size)
		switch {
		case size == 1:
		case size <= base:
			ops = append(ops, op{kind: opGather, label: label, size: size})
		default:
			r, s := Shape(size)
			for _, k := range []opKind{opTranspose, opUntranspose, opShift, opUnshift} {
				rec(r) // sort the columns
				ops = append(ops, op{kind: k, label: label, size: size, r: r, s: s})
			}
		}
	}
	rec(n)
	return ops
}

// dst returns where a permutation op sends the key at segment position
// pos.
func (o *op) dst(pos int) int {
	r, s := o.r, o.s
	switch o.kind {
	case opTranspose:
		// The entry at column-major index pos moves to the position
		// whose row-major index is pos.
		return pos%s*r + pos/s
	case opUntranspose:
		return pos%r*s + pos/r
	case opShift:
		// Cyclic shift down by half a column.
		return (pos + r/2) % o.size
	}
	// Inverse shift.  Column 0 holds the r/2 globally smallest keys in
	// its top half and the r/2 largest in its bottom half (the paper's
	// wrap convention): top-half keys stay, bottom-half keys go to the
	// tail of the segment; all other columns shift up by r/2.
	switch {
	case pos >= r:
		return pos - r/2
	case pos < r/2:
		return pos
	}
	return o.size - r + pos
}

// sortVP is one VP's state between supersteps.
type sortVP struct {
	my  kv   // the key the VP holds
	buf []kv // base-case scratch buffer
}

// columnsort is one run: the schedule and every VP's state.
type columnsort struct {
	ops  []op
	vps  []sortVP
	out  []int64
	wise bool
}

// step is Columnsort's step function.  Superstep t takes the key that
// ops[t-1] delivered — for a gather, the key of the VP's rank among the
// gathered ones, sorted in its scratch buffer — and stages the sends of
// ops[t]; after the last op it writes the VP's key to the output.  It
// runs on every VP at every superstep, so it must not allocate.
//
//nob:hotpath
func (c *columnsort) step(vp *core.VP[kv]) (int, bool) {
	id, t := vp.ID(), vp.Superstep()
	st := &c.vps[id]
	if t > 0 {
		o := &c.ops[t-1]
		pos := id & (o.size - 1)
		if o.kind == opGather {
			all := st.buf[:0]
			all = append(all, st.my)
			for _, msg := range vp.Inbox() {
				all = append(all, msg.Payload)
			}
			if len(all) != o.size {
				//nolint:hotalloc // programmer error: the engine delivered a wrong key count; the cold panic path may box
				panic("colsort: gather received wrong key count")
			}
			slices.SortFunc(all, cmpKV)
			st.my = all[pos]
		} else if got, ok := vp.Receive(); ok {
			st.my = got
		} else if o.dst(pos) != pos {
			//nolint:hotalloc // programmer error: the engine lost a key; the cold panic path may box
			panic("colsort: permutation delivered no key")
		}
	}
	if t == len(c.ops) {
		c.out[id] = st.my.key
		return 0, false
	}
	o := &c.ops[t]
	first := id &^ (o.size - 1)
	if o.kind == opGather {
		for q := first; q < first+o.size; q++ {
			if q != id {
				vp.Send(q, st.my)
			}
		}
	} else if dst := first + o.dst(id-first); dst != id {
		vp.Send(dst, st.my)
	}
	if c.wise {
		core.WisenessDummies(vp, o.label, 1)
	}
	return o.label, true
}
