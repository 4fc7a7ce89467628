// Package theory collects the analytic side of the reproduction: the
// communication lower bounds the paper optimizes against (Lemmas 4.1, 4.4,
// 4.7, 4.10 and Theorem 4.15, all in the form proved by Scquizzato and
// Silvestri, STACS 2014, plus Irony–Toledo–Tiskin for space-bounded matrix
// multiplication), the closed-form upper bounds of the paper's theorems,
// and the machinery of the optimality theorem (Theorem 3.4's factor and
// σ-window band, Theorem 4.16).  The checks of Lemma 3.3 and of Theorem
// 3.4's hypotheses on a D-BSP machine live in the package's tests.
//
// All bounds are returned with unit leading constants; experiments check
// that measured/predicted ratios stay bounded, i.e. the *shape* of each
// claim, which is what an asymptotic reproduction can and should verify.
package theory

import "math"

// log2 is the paper's log convention: log x = max{1, log2 x}.
func log2(x float64) float64 {
	l := math.Log2(x)
	if l < 1 {
		return 1
	}
	return l
}

// --- Lower bounds (Section 4, with σ = 0 bounds extended by +σ) ----------

// LowerBoundMM is Lemma 4.1: any n-MM algorithm in the class C (balanced
// multiplicative work, no initial replication) has
// H = Ω(n/p^{2/3} + σ) on M(p, σ).
func LowerBoundMM(n float64, p int, sigma float64) float64 {
	return n/math.Pow(float64(p), 2.0/3.0) + sigma
}

// LowerBoundMMSpace is the Irony–Toledo–Tiskin bound used in §4.1.1: with
// O(n/v) memory per processing element, H = Ω(n/√p + σ).
func LowerBoundMMSpace(n float64, p int, sigma float64) float64 {
	return n/math.Sqrt(float64(p)) + sigma
}

// LowerBoundFFT is Lemma 4.4: H = Ω((n log n)/(p log(n/p)) + σ).
func LowerBoundFFT(n float64, p int, sigma float64) float64 {
	return n*log2(n)/(float64(p)*log2(n/float64(p))) + sigma
}

// LowerBoundSort is Lemma 4.7; same form as the FFT bound.
func LowerBoundSort(n float64, p int, sigma float64) float64 {
	return LowerBoundFFT(n, p, sigma)
}

// LowerBoundStencil is Lemma 4.10: for the (n, d)-stencil,
// H = Ω(n^d/p^{(d-1)/d} + σ).
func LowerBoundStencil(n float64, d, p int, sigma float64) float64 {
	return math.Pow(n, float64(d))/math.Pow(float64(p), float64(d-1)/float64(d)) + sigma
}

// LowerBoundBroadcast is Theorem 4.15: any n-broadcast algorithm in C has
// H = Ω(max{2, σ}·log_{max{2,σ}} p) on M(p, σ).
func LowerBoundBroadcast(p int, sigma float64) float64 {
	base := math.Max(2, sigma)
	return base * math.Log2(float64(p)) / math.Log2(base)
}

// --- Upper bounds of the paper's theorems --------------------------------

// PredictedMM is Theorem 4.2: H_MM(n, p, σ) = O(n/p^{2/3} + σ·log p).
func PredictedMM(n float64, p int, sigma float64) float64 {
	return n/math.Pow(float64(p), 2.0/3.0) + sigma*log2(float64(p))
}

// PredictedMMSpace is §4.1.1: H = O(n/√p + σ·√p).
func PredictedMMSpace(n float64, p int, sigma float64) float64 {
	return n/math.Sqrt(float64(p)) + sigma*math.Sqrt(float64(p))
}

// PredictedFFT is Theorem 4.5: H = O((n/p + σ)·log n/log(n/p)).
func PredictedFFT(n float64, p int, sigma float64) float64 {
	return (n/float64(p) + sigma) * log2(n) / log2(n/float64(p))
}

// PredictedIterativeFFT is the communication complexity of the one-
// superstep-per-DAG-level butterfly algorithm (the suboptimal oblivious
// baseline): H = Θ((n/p + σ)·log p).
func PredictedIterativeFFT(n float64, p int, sigma float64) float64 {
	return (n/float64(p) + sigma) * log2(float64(p))
}

// PredictedSort is Theorem 4.8:
// H = O((n/p + σ)·(log n/log(n/p))^{log_{3/2} 4}).
func PredictedSort(n float64, p int, sigma float64) float64 {
	return (n/float64(p) + sigma) * math.Pow(log2(n)/log2(n/float64(p)), SortExponent)
}

// SortExponent is log_{3/2} 4 ≈ 3.419, the exponent of Theorem 4.8.
var SortExponent = math.Log(4) / math.Log(1.5)

// PredictedBitonic is the communication complexity of Batcher's bitonic
// sorting network folded on M(p, σ).  Of its log n·(log n+1)/2
// compare-exchange stages, exactly those with exchange distance
// 2^j >= n/p are non-local — log p·(log p+1)/2 of them, independent of n —
// each an (n/p)-relation:
//
//	H = Θ((n/p + σ)·log²p)
//
// a Θ(log²p) factor off the Lemma 4.7 lower bound where Columnsort is
// Θ(1)-optimal: the suboptimal fine-grained baseline of experiment E13.
func PredictedBitonic(n float64, p int, sigma float64) float64 {
	lp := log2(float64(p))
	return (n/float64(p) + sigma) * lp * (lp + 1) / 2
}

// PredictedStencil1 is Theorem 4.11: H = O(n·4^{√log n}) for
// σ = O(n/p).  (The bound is independent of p.)
func PredictedStencil1(n float64, p int, sigma float64) float64 {
	return n * math.Pow(4, math.Sqrt(log2(n)))
}

// PredictedStencil2 is Theorem 4.13: H = O((n²/√p)·8^{√log n}) for
// σ = O(n²/p).
func PredictedStencil2(n float64, p int, sigma float64) float64 {
	return n * n / math.Sqrt(float64(p)) * math.Pow(8, math.Sqrt(log2(n)))
}

// PredictedBroadcastAware is the σ-aware κ-ary broadcast of §4.5:
// H = O(max{2,σ}·log_{max{2,σ}} p), matching the lower bound.
func PredictedBroadcastAware(p int, sigma float64) float64 {
	return LowerBoundBroadcast(p, sigma)
}

// Bounds maps a registry algorithm to its closed-form (lower,
// predicted) communication bounds on M(p, σ) at input size n.  ok
// reports whether the paper provides closed forms for the algorithm.
func Bounds(name string, n float64, p int, sigma float64) (lower, predicted float64, ok bool) {
	switch name {
	case "matmul":
		return LowerBoundMM(n, p, sigma), PredictedMM(n, p, sigma), true
	case "matmul-space":
		return LowerBoundMMSpace(n, p, sigma), PredictedMMSpace(n, p, sigma), true
	case "fft":
		return LowerBoundFFT(n, p, sigma), PredictedFFT(n, p, sigma), true
	case "fft-iterative":
		return LowerBoundFFT(n, p, sigma), PredictedIterativeFFT(n, p, sigma), true
	case "sort":
		return LowerBoundSort(n, p, sigma), PredictedSort(n, p, sigma), true
	case "bitonic":
		return LowerBoundSort(n, p, sigma), PredictedBitonic(n, p, sigma), true
	case "stencil1":
		return LowerBoundStencil(n, 1, p, sigma), PredictedStencil1(n, p, sigma), true
	case "stencil2":
		return LowerBoundStencil(n, 2, p, sigma), PredictedStencil2(n, p, sigma), true
	case "broadcast-tree":
		return LowerBoundBroadcast(p, sigma), PredictedBroadcastAware(p, sigma), true
	default:
		return 0, 0, false
	}
}

// --- Optimality theorem machinery (Section 3) ----------------------------

// BetaPrime returns the optimality factor guaranteed on the D-BSP by
// Theorem 3.4 for an (α, p)-wise algorithm that is β-optimal on the
// evaluation model: β' = αβ/(1+α).
func BetaPrime(alpha, beta float64) float64 {
	if alpha <= 0 {
		return 0
	}
	return alpha * beta / (1 + alpha)
}

// GapLowerBound is Theorem 4.16: for any network-oblivious n-broadcast
// algorithm and 0 <= σ1 <= σ2, the maximum slowdown over σ in [σ1, σ2]
// with respect to the best σ-aware algorithm is
//
//	GAP = Ω(log max{2,σ2} / (log max{2,σ1} + log log max{2,σ2})).
func GapLowerBound(sigma1, sigma2 float64) float64 {
	s1 := math.Max(2, sigma1)
	s2 := math.Max(2, sigma2)
	return math.Log2(s2) / (math.Log2(s1) + math.Log2(math.Max(2, math.Log2(s2))))
}
