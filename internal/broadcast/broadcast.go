// Package broadcast implements the algorithms of Section 4.5 of the
// paper, where the framework's limits are established: n-broadcast (copy
// V[0] to every other vector entry) admits an O(1)-optimal σ-aware
// algorithm on M(p, σ) (the κ-ary tree with κ = Θ(max{2, σ})), but no
// network-oblivious algorithm can be Θ(1)-optimal across widely different
// σ (Theorem 4.16: the slowdown over σ ∈ [σ1, σ2] is
// Ω(log σ2/(log σ1 + log log σ2))).
//
// Three algorithms are provided:
//
//   - Aware: the κ-ary tree of Section 4.5, parameter-aware (chooses κ
//     from σ), matching the Theorem 4.15 lower bound.
//   - Oblivious: the natural binary doubling tree, network-oblivious
//     (κ = 2 regardless of σ); Θ(1)-optimal only for σ = O(1).
//   - ObliviousFlat: the one-superstep star; Θ(1)-optimal only for huge σ.
//
// Experiment E7 measures the GAP of the oblivious algorithms against the
// lower bound across σ ranges and compares it with the Theorem 4.16 curve.
package broadcast

import (
	"fmt"
	"math"

	"netoblivious/alg"
	"netoblivious/internal/core"
)

// Result carries the broadcast outcome and trace.
type Result struct {
	// Got[i] is the value held by VP i at the end.
	Got []int64
	// Trace is the communication record.
	Trace *core.Trace
	// Kappa is the tree arity used (2 for Oblivious, n-1... for flat the
	// field is the machine size; informational).
	Kappa int
}

// Options is the unified run configuration (engine, recording,
// cancellation; the broadcast algorithms have no wise variant and ignore
// Spec.Wise).
type Options = alg.Spec

func checkV(v int) error {
	if v < 2 || v&(v-1) != 0 {
		return fmt.Errorf("broadcast: v=%d must be a power of two >= 2", v)
	}
	return nil
}

// Oblivious runs the binary doubling broadcast on M(v): superstep i (an
// i-superstep) doubles the informed set from the v/2^i-strided
// representatives to the v/2^{i+1}-strided ones.  Network-oblivious: no
// machine parameter appears.
//
//nob:deterministic
func Oblivious(v int, value int64, opts Options) (*Result, error) {
	if err := checkV(v); err != nil {
		return nil, err
	}
	got := make([]int64, v)
	prog := func(vp *core.VP[int64]) {
		val := int64(0)
		if vp.ID() == 0 {
			val = value
		}
		d := v // stride of informed VPs
		for d > 1 {
			nd := d / 2
			label := core.Log2(v / d)
			if vp.ID()%d == 0 {
				vp.Send(vp.ID()+nd, val)
			}
			vp.Sync(label)
			if vp.ID()%nd == 0 && vp.ID()%d != 0 {
				m, ok := vp.Receive()
				if !ok {
					panic("broadcast: doubling round delivered no value")
				}
				val = m
			}
			d = nd
		}
		got[vp.ID()] = val
	}
	tr, err := core.RunOpt(v, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Got: got, Trace: tr, Kappa: 2}, nil
}

// ObliviousFlat runs the one-superstep star broadcast on M(v): VP 0 sends
// v−1 messages directly.
func ObliviousFlat(v int, value int64, opts Options) (*Result, error) {
	if err := checkV(v); err != nil {
		return nil, err
	}
	got := make([]int64, v)
	prog := func(vp *core.VP[int64]) {
		val := int64(0)
		if vp.ID() == 0 {
			val = value
			for t := 1; t < v; t++ {
				vp.Send(t, val)
			}
		}
		vp.Sync(0)
		if vp.ID() != 0 {
			m, ok := vp.Receive()
			if !ok {
				panic("broadcast: star delivered no value")
			}
			val = m
		}
		got[vp.ID()] = val
	}
	tr, err := core.RunOpt(v, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Got: got, Trace: tr, Kappa: v}, nil
}

// KappaFor returns the paper's arity choice for the σ-aware algorithm:
// the smallest power of two >= max{2, σ}.
func KappaFor(sigma float64) int {
	k := 2
	for float64(k) < math.Max(2, sigma) {
		k *= 2
	}
	return k
}

// Aware runs the σ-aware κ-ary broadcast of Section 4.5 on M(p) with
// κ = KappaFor(sigma): in round i the informed representatives fan out to
// κ−1 sub-representatives of their cluster, using ⌈log_κ p⌉ supersteps of
// degree κ−1.  Its communication complexity on M(p, σ) is
// O(max{2,σ}·log_{max{2,σ}} p), matching the Theorem 4.15 lower bound, so
// the algorithm is O(1)-optimal — but it is parameter-aware, which
// Theorem 4.16 shows is unavoidable.
func Aware(p int, sigma float64, value int64, opts Options) (*Result, error) {
	if err := checkV(p); err != nil {
		return nil, err
	}
	kappa := KappaFor(sigma)
	got := make([]int64, p)
	prog := func(vp *core.VP[int64]) {
		val := int64(0)
		if vp.ID() == 0 {
			val = value
		}
		d := p
		for d > 1 {
			nd := d / kappa
			if nd < 1 {
				nd = 1
			}
			label := core.Log2(p / d)
			if vp.ID()%d == 0 {
				for ell := 1; ell*nd < d; ell++ {
					vp.Send(vp.ID()+ell*nd, val)
				}
			}
			vp.Sync(label)
			if vp.ID()%nd == 0 && vp.ID()%d != 0 {
				m, ok := vp.Receive()
				if !ok {
					panic("broadcast: aware round delivered no value")
				}
				val = m
			}
			d = nd
		}
		got[vp.ID()] = val
	}
	tr, err := core.RunOpt(p, prog, opts.RunOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Got: got, Trace: tr, Kappa: kappa}, nil
}
