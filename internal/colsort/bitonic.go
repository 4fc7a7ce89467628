package colsort

import (
	"fmt"

	"netoblivious/internal/core"
)

// SortBitonic runs Batcher's bitonic sorting network on M(n), one key per
// VP — the classic fine-grained network-oblivious sorting algorithm, used
// here as the baseline Columnsort improves upon.
//
// The network has log n · (log n + 1)/2 compare-exchange stages; the stage
// exchanging keys between VPs differing in bit l is a superstep with label
// log n − l − 1 (partners share exactly the more significant bits).  Folded
// on M(p, σ) the communication complexity is
//
//	H_bitonic(n, p, σ) = Θ((n/p + σ)·log p·log n)
//
// — a log p·log n/(log n/log(n/p))^{log_{3/2}4}... in particular a
// Θ(log²p) factor off the Lemma 4.7 lower bound at p = n^Θ(1), whereas
// Columnsort is Θ(1)-optimal there (experiment E13).
//
//nob:deterministic
func SortBitonic(keys []int64, opts Options) (*Result, error) {
	n := len(keys)
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("colsort: input length %d must be a positive power of two", n)
	}
	b := &bitonic{logN: core.Log2(n), keys: make([]kv, n), out: make([]int64, n), wise: opts.Wise}
	for k := 0; k < b.logN; k++ {
		for j := k; j >= 0; j-- {
			b.stages = append(b.stages, stage{k: k, j: j})
		}
	}
	for i, key := range keys {
		b.keys[i] = kv{key: key, tag: int32(i)}
	}
	tr, err := core.RunSteps(n, b.step, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Keys: b.out, Trace: tr}, nil
}

// stage (k, j) of the network is the bitonic merge of blocks of size
// 2^{k+1} at exchange distance 2^j; the network runs k = 0..logN-1 and,
// within each, j = k..0.
type stage struct{ k, j int }

// bitonic is one run of the network: its stages and every VP's key.
type bitonic struct {
	logN   int
	stages []stage
	keys   []kv
	out    []int64
	wise   bool
}

// step is the network's step function.  Superstep t keeps the minimum
// or the maximum of the VP's key and the partner's that stage t-1
// exchanged, and sends the key to stage t's partner; after the last
// stage it writes the key to the output.
//
//nob:hotpath
func (b *bitonic) step(vp *core.VP[kv]) (int, bool) {
	id, t := vp.ID(), vp.Superstep()
	me := &b.keys[id]
	if t > 0 {
		st := b.stages[t-1]
		other, ok := vp.Receive()
		if !ok {
			//nolint:hotalloc // programmer error: the engine lost a key; the cold panic path may box
			panic("colsort: bitonic exchange delivered no key")
		}
		// Direction: ascending iff bit k+1 of id is 0.
		ascending := id&(1<<uint(st.k+1)) == 0
		keepMin := (id&(1<<uint(st.j)) == 0) == ascending
		if keepMin && other.less(*me) || !keepMin && me.less(other) {
			*me = other
		}
	}
	if t == len(b.stages) {
		b.out[id] = me.key
		return 0, false
	}
	j := b.stages[t].j
	// Partners differ in bit j and share the more significant bits.
	label := b.logN - j - 1
	vp.Send(id^1<<uint(j), *me)
	if b.wise {
		core.WisenessDummies(vp, label, 1)
	}
	return label, true
}
