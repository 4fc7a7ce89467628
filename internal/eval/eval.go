// Package eval implements the evaluation model M(p, σ) of the
// network-oblivious framework (Section 2 of Bilardi et al., "Network-
// Oblivious Algorithms", J.ACM 2016) and the communication metrics derived
// from a specification-model trace: communication complexity H(n, p, σ),
// wiseness α (Definition 3.2) and fullness γ (Definition 5.2).
//
// The evaluation model is a BSP with bandwidth parameter g = 1 and
// latency/synchronization parameter σ: the cost of a superstep of degree h
// is h + σ, regardless of its label.  A network-oblivious algorithm
// specified on M(v(n)) is evaluated on M(p, σ), p <= v(n), through the
// folding mechanism.  Every quantity here is an exact function of the
// superstep counts S_i(n) and folded degrees F_i(n, p) alone, so every
// metric reads a core.FoldSummary: summarize a trace once
// (Trace.Summary, or core.Summarize over a stream), then measure any
// number of (p, σ) points in O(log²v) each.
package eval

import (
	"fmt"
	"math"

	"netoblivious/internal/core"
)

// Folding is the view of an M(v) algorithm folded onto p processors: the
// per-label superstep counts S_i(n) and cumulative degrees F_i(n, p) that
// the framework's two cost measures are built from.
type Folding struct {
	// P is the number of processors of the folded machine (a power of
	// two, 1 < P <= v).
	P int
	// LogP is log2(P).
	LogP int
	// F[i], 0 <= i < LogP, is the cumulative degree of all i-supersteps
	// on the folded machine.
	F []int64
	// S[i], 0 <= i < LabelBound, is the number of i-supersteps (fold
	// independent).  Only entries with i < LogP enter the cost measures.
	S []int64
}

// Fold computes the folding of a summarized algorithm onto p processors.
// p must be a power of two with 1 < p <= v; any other p panics.
func Fold(fs *core.FoldSummary, p int) Folding {
	lp := foldLog(fs, p, "Fold")
	return Folding{P: p, LogP: lp, F: fs.F(p), S: fs.S()}
}

// H returns the communication complexity H_A(n, p, σ) of the folded
// algorithm on the evaluation model M(p, σ) (Equation 1 of the paper):
//
//	H = Σ_{i=0}^{log p - 1} (F_i(n, p) + S_i(n)·σ)
func (f Folding) H(sigma float64) float64 {
	var msgs, steps int64
	for i := 0; i < f.LogP; i++ {
		msgs += f.F[i]
		if i < len(f.S) {
			steps += f.S[i]
		}
	}
	return float64(msgs) + float64(steps)*sigma
}

// Supersteps returns the number of supersteps that involve communication
// on the folded machine (labels < log p).
func (f Folding) Supersteps() int64 {
	var steps int64
	for i := 0; i < f.LogP && i < len(f.S); i++ {
		steps += f.S[i]
	}
	return steps
}

// MessageLoad returns Σ_{i<log p} F_i(n,p): the σ-free part of H.
func (f Folding) MessageLoad() int64 {
	var msgs int64
	for i := 0; i < f.LogP; i++ {
		msgs += f.F[i]
	}
	return msgs
}

// H is a convenience wrapper: the communication complexity of the
// summarized algorithm folded on M(p, σ).
func H(fs *core.FoldSummary, p int, sigma float64) float64 {
	return Fold(fs, p).H(sigma)
}

// Wiseness returns the largest α such that the summarized algorithm is
// (α, p)-wise (Definition 3.2):
//
//	Σ_{i<j} F_i(n, 2^j)  >=  α · (p/2^j) · Σ_{i<j} F_i(n, p)
//
// for every 1 <= j <= log p.  A ratio with zero denominator is vacuous and
// skipped; if the algorithm exchanges no messages at any fold the result
// is 1.  The result is in [0, 1]: by Lemma 3.1 the ratio never exceeds 1.
func Wiseness(fs *core.FoldSummary, p int) float64 {
	lp := foldLog(fs, p, "Wiseness")
	fp := fs.F(p)
	alpha := 1.0
	for j := 1; j <= lp; j++ {
		fj := fs.F(1 << uint(j))
		var num, den int64
		for i := 0; i < j; i++ {
			num += fj[i]
			den += fp[i]
		}
		if den == 0 {
			continue
		}
		ratio := float64(num) * float64(int64(1)<<uint(j)) / (float64(den) * float64(p))
		if ratio < alpha {
			alpha = ratio
		}
	}
	return alpha
}

// Fullness returns the largest γ such that the summarized algorithm is
// (γ, p)-full (Definition 5.2):
//
//	Σ_{i<j} F_i(n, 2^j)  >=  γ · (p/2^j) · Σ_{i<j} S_i(n)
//
// for every 1 <= j <= log p.  Ratios with zero denominator are skipped;
// if no superstep has a label below log p the result is +Inf is avoided
// and 0 is returned (the notion is vacuous).
func Fullness(fs *core.FoldSummary, p int) float64 {
	lp := foldLog(fs, p, "Fullness")
	s := fs.S()
	gamma := math.Inf(1)
	for j := 1; j <= lp; j++ {
		fj := fs.F(1 << uint(j))
		var num, den int64
		for i := 0; i < j; i++ {
			num += fj[i]
			den += s[i]
		}
		if den == 0 {
			continue
		}
		ratio := float64(num) * float64(int64(1)<<uint(j)) / (float64(den) * float64(p))
		if ratio < gamma {
			gamma = ratio
		}
	}
	if math.IsInf(gamma, 1) {
		return 0
	}
	return gamma
}

// CheckFoldingLemma verifies Lemma 3.1 on a summarized trace: for every
// 1 <= j <= log p,
//
//	Σ_{i<j} F_i(n, 2^j)  <=  (p/2^j) · Σ_{i<j} F_i(n, p).
//
// It returns an error describing the first violation, or nil.  The lemma
// holds unconditionally for every static algorithm, so a violation
// indicates a metrics bug; the property tests exercise this.
func CheckFoldingLemma(fs *core.FoldSummary, p int) error {
	lp := core.Log2(p)
	if lp < 1 || lp > fs.LogV() {
		return fmt.Errorf("eval: CheckFoldingLemma: p=%d invalid for v=%d", p, fs.V())
	}
	fp := fs.F(p)
	for j := 1; j <= lp; j++ {
		fj := fs.F(1 << uint(j))
		var lhs, rhs int64
		for i := 0; i < j; i++ {
			lhs += fj[i]
			rhs += fp[i]
		}
		scaled := rhs * int64(p>>uint(j))
		if lhs > scaled {
			return fmt.Errorf("eval: Lemma 3.1 violated at j=%d: Σ F_i(n,2^j)=%d > (p/2^j)·Σ F_i(n,p)=%d", j, lhs, scaled)
		}
	}
	return nil
}

// foldLog returns log2(p) for a fold p valid on fs's machine, panicking
// with the caller's name otherwise.
func foldLog(fs *core.FoldSummary, p int, fn string) int {
	lp := core.Log2(p)
	if lp < 1 || lp > fs.LogV() {
		panic(fmt.Sprintf("eval: %s: p=%d invalid for v=%d", fn, p, fs.V()))
	}
	return lp
}

// BetaOptimality returns the optimality factor β = lower/measured of a
// measured communication complexity against a lower bound (Definition
// 2.1: an algorithm is β-optimal when every competitor is at least β times
// as expensive; measuring against a proven lower bound certifies β).
// A result of 0 means the measurement was infinitely worse than the bound
// (or the bound was 0 with a positive measurement).
func BetaOptimality(lower, measured float64) float64 {
	switch {
	case measured <= 0 && lower <= 0:
		return 1
	case measured <= 0:
		return 0
	default:
		beta := lower / measured
		if beta > 1 {
			beta = 1
		}
		if beta < 0 {
			beta = 0
		}
		return beta
	}
}
