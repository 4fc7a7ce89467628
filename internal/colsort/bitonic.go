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
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	out := make([]int64, n)
	prog := func(vp *core.VP[kv]) {
		id := vp.ID()
		me := kv{key: keys[id], tag: int32(id)}
		// Stage (k, j): bitonic merge of blocks of size 2^{k+1}, exchange
		// distance 2^j, for k = 0..logN-1, j = k..0.
		for k := 0; k < logN; k++ {
			for j := k; j >= 0; j-- {
				dist := 1 << uint(j)
				partner := id ^ dist
				label := logN - j - 1
				vp.Send(partner, me)
				if opts.Wise {
					core.WisenessDummies(vp, label, 1)
				}
				vp.Sync(label)
				other, ok := vp.Receive()
				if !ok {
					panic("colsort: bitonic exchange delivered no key")
				}
				// Direction: ascending iff bit k+1 of id is 0.
				ascending := id&(1<<uint(k+1)) == 0
				keepMin := (id&dist == 0) == ascending
				if keepMin {
					if other.less(me) {
						me = other
					}
				} else {
					if me.less(other) {
						me = other
					}
				}
			}
		}
		out[id] = me.key
	}
	tr, err := core.RunOpt(n, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Keys: out, Trace: tr}, nil
}
