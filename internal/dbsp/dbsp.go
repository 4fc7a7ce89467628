// Package dbsp implements the execution machine model of the network-
// oblivious framework: the Decomposable Bulk Synchronous Parallel model
// D-BSP(p, g, ℓ) of de la Torre–Kruskal and Bilardi et al., used by the
// paper (Section 2) as the model on which network-oblivious algorithms are
// ultimately executed.
//
// A D-BSP(p, g, ℓ) is an M(p) whose processors are partitioned into nested
// i-clusters of p/2^i processors; an i-superstep of degree h costs
// h·g_i + ℓ_i time units.  The communication time of an algorithm is
//
//	D_A(n, p, g, ℓ) = Σ_{i<log p} (F_i(n,p)·g_i + S_i(n)·ℓ_i)   (Eq. 2)
//
// The package also provides parameter-vector generators for common
// point-to-point networks (following Bilardi, Pietracaprina, Pucci,
// "A quantitative measure of portability...", Euro-Par 1999, which shows
// D-BSP captures these networks well) and the ascend–descend execution
// protocol of Section 5, which rebalances the communication of non-wise
// algorithms at a polylogarithmic cost (Lemma 5.1, Theorem 5.3).
package dbsp

import (
	"fmt"
	"math"

	"netoblivious/internal/core"
)

// Params is a D-BSP(p, g, ℓ) parameter assignment.
type Params struct {
	// Name identifies the network the parameters model (informational).
	Name string
	// P is the number of processors, a power of two >= 2.
	P int
	// G[i] is the inverse bandwidth (time per message) within i-clusters,
	// for 0 <= i < log2(P).
	G []float64
	// L[i] is the latency plus synchronization cost within i-clusters.
	L []float64
}

// New validates and builds a parameter assignment.
func New(name string, p int, g, l []float64) (Params, error) {
	if p < 2 || p&(p-1) != 0 {
		return Params{}, fmt.Errorf("dbsp: p must be a power of two >= 2, got %d", p)
	}
	lp := core.Log2(p)
	if len(g) != lp || len(l) != lp {
		return Params{}, fmt.Errorf("dbsp: need log p = %d entries, got |g|=%d |l|=%d", lp, len(g), len(l))
	}
	for i := 0; i < lp; i++ {
		if g[i] <= 0 || math.IsNaN(g[i]) || math.IsInf(g[i], 0) {
			return Params{}, fmt.Errorf("dbsp: g[%d] = %v must be positive and finite", i, g[i])
		}
		if l[i] < 0 || math.IsNaN(l[i]) || math.IsInf(l[i], 0) {
			return Params{}, fmt.Errorf("dbsp: l[%d] = %v must be nonnegative and finite", i, l[i])
		}
	}
	return Params{Name: name, P: p, G: g, L: l}, nil
}

// MustNew is New for statically correct parameters; it panics on error.
func MustNew(name string, p int, g, l []float64) Params {
	pr, err := New(name, p, g, l)
	if err != nil {
		panic(err)
	}
	return pr
}

// LogP returns log2(P).
func (pr Params) LogP() int { return core.Log2(pr.P) }

// Admissible reports whether the parameters satisfy the structural
// hypotheses of the optimality theorem (Theorem 3.4): the g_i and the
// ratios ℓ_i/g_i must both be nonincreasing in i (larger submachines have
// costlier communication and larger capacity).
func (pr Params) Admissible() error {
	for i := 0; i+1 < len(pr.G); i++ {
		if pr.G[i] < pr.G[i+1] {
			return fmt.Errorf("dbsp(%s): g is increasing at level %d (%v < %v)", pr.Name, i, pr.G[i], pr.G[i+1])
		}
		if pr.L[i]/pr.G[i] < pr.L[i+1]/pr.G[i+1] {
			return fmt.Errorf("dbsp(%s): ℓ/g is increasing at level %d (%v < %v)", pr.Name, i, pr.L[i]/pr.G[i], pr.L[i+1]/pr.G[i+1])
		}
	}
	return nil
}

// CommTimeSummary returns the communication time D_A(n, p, g, ℓ)
// (Equation 2) of the summarized algorithm folded onto this machine.
func CommTimeSummary(fs *core.FoldSummary, pr Params) float64 {
	if pr.LogP() > fs.LogV() {
		panic(fmt.Sprintf("dbsp: machine p=%d larger than specification v=%d", pr.P, fs.V()))
	}
	return CommTimeOf(fs.F(pr.P), fs.S(), pr)
}

// CommTimeOf computes Eq. 2 from explicit F and S vectors (used by the
// ascend–descend protocol and by hand-built cost models).
func CommTimeOf(f, s []int64, pr Params) float64 {
	lp := pr.LogP()
	var d float64
	for i := 0; i < lp; i++ {
		if i < len(f) {
			d += float64(f[i]) * pr.G[i]
		}
		if i < len(s) {
			d += float64(s[i]) * pr.L[i]
		}
	}
	return d
}

// --- Network presets -----------------------------------------------------
//
// Each preset returns the asymptotic D-BSP vectors for a p-processor
// instance of the network, with unit constants.  The i-cluster corresponds
// to a submachine with m = p/2^i processors.

// Uniform returns flat vectors g_i = g, ℓ_i = l: a plain BSP(p, g, l)
// machine that ignores locality.
func Uniform(p int, g, l float64) Params {
	lp := core.Log2(p)
	gs := make([]float64, lp)
	ls := make([]float64, lp)
	for i := range gs {
		gs[i], ls[i] = g, l
	}
	return MustNew(fmt.Sprintf("uniform(g=%g,l=%g)", g, l), p, gs, ls)
}

// Mesh returns the vectors of a d-dimensional mesh/torus: a submachine
// with m processors has bisection bandwidth m^{1-1/d} and diameter m^{1/d},
// giving g_i = (p/2^i)^{1/d} and ℓ_i = (p/2^i)^{1/d}.
func Mesh(d, p int) Params {
	if d < 1 {
		panic("dbsp: mesh dimension must be >= 1")
	}
	lp := core.Log2(p)
	gs := make([]float64, lp)
	ls := make([]float64, lp)
	for i := 0; i < lp; i++ {
		m := float64(int64(p) >> uint(i))
		gs[i] = math.Pow(m, 1/float64(d))
		ls[i] = math.Pow(m, 1/float64(d))
	}
	return MustNew(fmt.Sprintf("mesh-%dD(p=%d)", d, p), p, gs, ls)
}

// Hypercube returns the vectors of a binary hypercube with multiport
// routing: constant inverse bandwidth and logarithmic latency,
// g_i = 1, ℓ_i = max{1, log2(p/2^i)}.
func Hypercube(p int) Params {
	lp := core.Log2(p)
	gs := make([]float64, lp)
	ls := make([]float64, lp)
	for i := 0; i < lp; i++ {
		gs[i] = 1
		ls[i] = math.Max(1, float64(lp-i))
	}
	return MustNew(fmt.Sprintf("hypercube(p=%d)", p), p, gs, ls)
}

// FatTree returns the vectors of an area-universal fat-tree:
// g_i = ℓ_i = max{1, log2(p/2^i)} (bandwidth thinning and depth both
// logarithmic in the submachine size).
func FatTree(p int) Params {
	lp := core.Log2(p)
	gs := make([]float64, lp)
	ls := make([]float64, lp)
	for i := 0; i < lp; i++ {
		v := math.Max(1, float64(lp-i))
		gs[i] = v
		ls[i] = v
	}
	return MustNew(fmt.Sprintf("fattree(p=%d)", p), p, gs, ls)
}

// Presets returns the standard network suite used by the experiments.
func Presets(p int) []Params {
	return []Params{
		Uniform(p, 1, 1),
		Mesh(1, p),
		Mesh(2, p),
		Mesh(3, p),
		Hypercube(p),
		FatTree(p),
	}
}
