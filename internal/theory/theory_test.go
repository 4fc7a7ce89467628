package theory

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netoblivious/internal/dbsp"
)

func TestLowerBoundShapes(t *testing.T) {
	// MM: decreasing in p (as p^{2/3}), additive in σ.
	if LowerBoundMM(4096, 8, 0) != 1024 {
		t.Errorf("MM LB(4096, 8, 0) = %v, want 1024", LowerBoundMM(4096, 8, 0))
	}
	if got := LowerBoundMM(4096, 8, 5) - LowerBoundMM(4096, 8, 0); got != 5 {
		t.Errorf("σ additivity broken: %v", got)
	}
	// FFT at p = √n: (n log n)/(p·(log n)/2) = 2n/p.
	n := 1 << 12
	got := LowerBoundFFT(float64(n), 1<<6, 0)
	want := 2 * float64(n) / float64(1<<6)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("FFT LB = %v, want %v", got, want)
	}
	// Stencil d=1: Ω(n); d=2: Ω(n²/√p).
	if LowerBoundStencil(256, 1, 16, 0) != 256 {
		t.Errorf("stencil d=1 LB = %v", LowerBoundStencil(256, 1, 16, 0))
	}
	if LowerBoundStencil(16, 2, 16, 0) != 64 {
		t.Errorf("stencil d=2 LB = %v, want 64", LowerBoundStencil(16, 2, 16, 0))
	}
	// Broadcast: σ <= 2 gives 2·log2 p; large σ gives σ·log_σ p.
	if LowerBoundBroadcast(256, 0) != 16 {
		t.Errorf("broadcast LB σ=0: %v, want 16", LowerBoundBroadcast(256, 0))
	}
	if got := LowerBoundBroadcast(256, 16); math.Abs(got-32) > 1e-9 {
		t.Errorf("broadcast LB σ=16: %v, want 32", got)
	}
}

func TestPredictedDominatesLowerBound(t *testing.T) {
	// Every upper bound must dominate its lower bound pointwise (same
	// unit constants, so >= up to the σ terms' structure).
	for _, p := range []int{2, 8, 64, 512} {
		for _, sigma := range []float64{0, 1, 32} {
			n := 1 << 12
			if PredictedMM(float64(n), p, sigma) < LowerBoundMM(float64(n), p, sigma)-1e-9 {
				t.Errorf("MM predicted < LB at p=%d σ=%v", p, sigma)
			}
			if PredictedFFT(float64(n), p, sigma) < LowerBoundFFT(float64(n), p, sigma)-1e-9 {
				t.Errorf("FFT predicted < LB at p=%d σ=%v", p, sigma)
			}
			if PredictedSort(float64(n), p, sigma) < LowerBoundSort(float64(n), p, sigma)-1e-9 {
				t.Errorf("sort predicted < LB at p=%d σ=%v", p, sigma)
			}
		}
	}
}

func TestBetaPrime(t *testing.T) {
	if got := BetaPrime(1, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("BetaPrime(1,1) = %v, want 0.5", got)
	}
	if BetaPrime(0, 1) != 0 {
		t.Error("BetaPrime(0, 1) should be 0")
	}
	if got := BetaPrime(0.5, 0.6); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("BetaPrime(0.5,0.6) = %v, want 0.2", got)
	}
}

// TestLemma33Property: random sequences with dominated prefix sums and
// random nonincreasing weights never violate the domination conclusion.
// This exercises the exact argument used inside Theorem 3.4's proof.
func TestLemma33Property(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	prop := func(raw []float64, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		m := len(raw)
		// Build ys >= running xs by adding nonnegative slack.
		xs := make([]float64, m)
		ys := make([]float64, m)
		var slack float64
		for i := range raw {
			xs[i] = math.Mod(math.Abs(raw[i]), 100)
			extra := r.Float64() * 10
			// y_i = x_i + extra - min(slack, something): keep prefix
			// domination by only adding.
			ys[i] = xs[i] + extra
			slack += extra
		}
		// Nonincreasing nonnegative weights.
		fs := make([]float64, m)
		w := 100 * r.Float64()
		for i := range fs {
			fs[i] = w
			w -= r.Float64() * w / 2
		}
		return CheckDomination(xs, ys, fs) == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestCheckDominationRejectsBadWeights(t *testing.T) {
	if err := CheckDomination([]float64{1}, []float64{2}, []float64{-1}); err == nil {
		t.Error("want error for negative weights")
	}
	if err := CheckDomination([]float64{1, 1}, []float64{2, 2}, []float64{1, 2}); err == nil {
		t.Error("want error for increasing weights")
	}
}

func TestSigmaWindowBand(t *testing.T) {
	// MM-style window on p̂ = 8: σ^m = 0, σ^M_j = n/((j+1)·2^{2j/3}) — here
	// just check the arithmetic with simple numbers.
	w := SigmaWindow{
		Min: []float64{0, 0, 0},
		Max: []float64{32, 16, 8},
	}
	lo, hi, err := w.AdmissibleRatioBand(8)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 {
		t.Errorf("lo = %v, want 0", lo)
	}
	// hi = min(32·2/8, 16·4/8, 8·8/8) = min(8, 8, 8) = 8.
	if hi != 8 {
		t.Errorf("hi = %v, want 8", hi)
	}
	// Empty band must error.
	w2 := SigmaWindow{Min: []float64{4, 4, 4}, Max: []float64{1, 1, 1}}
	if _, _, err := w2.AdmissibleRatioBand(8); err == nil {
		t.Error("want empty-band error")
	}
}

func TestCheckTransfer(t *testing.T) {
	w := SigmaWindow{
		Min: []float64{0, 0, 0},
		Max: []float64{1 << 20, 1 << 20, 1 << 20},
	}
	for _, pr := range dbsp.Presets(8) {
		if err := CheckTransfer(w, pr); err != nil {
			t.Errorf("transfer should hold for %s: %v", pr.Name, err)
		}
	}
	// A tiny σ^M window excludes machines with large ℓ/g.
	wTight := SigmaWindow{Min: []float64{0, 0, 0}, Max: []float64{0.1, 0.1, 0.1}}
	if err := CheckTransfer(wTight, dbsp.Mesh(1, 8)); err == nil {
		t.Error("want band violation for mesh-1D under tight window")
	}
}

func TestGapLowerBound(t *testing.T) {
	// GAP grows with σ2 for fixed σ1.
	g1 := GapLowerBound(0, 16)
	g2 := GapLowerBound(0, 1<<20)
	if g2 <= g1 {
		t.Errorf("GAP not increasing: %v vs %v", g1, g2)
	}
	// Symmetric window [σ,σ] gives O(1) gap.
	if g := GapLowerBound(1024, 1024); g > 2 {
		t.Errorf("point window gap = %v, want small", g)
	}
}

func TestSortExponent(t *testing.T) {
	if math.Abs(SortExponent-3.4190) > 1e-3 {
		t.Errorf("log_{3/2}4 = %v, want ≈3.419", SortExponent)
	}
}

// CheckDomination verifies the hypothesis and conclusion of Lemma 3.3: if
// prefix sums of xs are dominated by prefix sums of ys, then for every
// nonincreasing nonnegative weight vector fs, Σ x_i f_i <= Σ y_i f_i.
// It returns an error if the hypothesis holds but the conclusion fails
// (which would indicate a broken implementation; used by property tests).
func CheckDomination(xs, ys, fs []float64) error {
	m := len(xs)
	if len(ys) != m || len(fs) != m {
		return fmt.Errorf("theory: CheckDomination: length mismatch")
	}
	for i := 0; i+1 < m; i++ {
		if fs[i] < fs[i+1] {
			return fmt.Errorf("theory: weights must be nonincreasing")
		}
	}
	for i := 0; i < m; i++ {
		if fs[i] < 0 {
			return fmt.Errorf("theory: weights must be nonnegative")
		}
	}
	var px, py float64
	for k := 0; k < m; k++ {
		px += xs[k]
		py += ys[k]
		if px > py+1e-9 {
			return nil // hypothesis fails: nothing to check
		}
	}
	var sx, sy float64
	for i := 0; i < m; i++ {
		sx += xs[i] * fs[i]
		sy += ys[i] * fs[i]
	}
	if sx > sy+1e-6*(math.Abs(sy)+1) {
		return fmt.Errorf("theory: Lemma 3.3 violated: Σx·f = %v > Σy·f = %v", sx, sy)
	}
	return nil
}

// CheckTransfer verifies that a D-BSP machine satisfies all hypotheses of
// Theorem 3.4 for the given σ-window: structural admissibility plus every
// ℓ_i/g_i inside the window's band.  On success the theorem guarantees
// that an (α, p̂)-wise, β-optimal-on-M(2^j, σ) algorithm is αβ/(1+α)-
// optimal on the machine.
func CheckTransfer(w SigmaWindow, pr dbsp.Params) error {
	if err := pr.Admissible(); err != nil {
		return err
	}
	lo, hi, err := w.AdmissibleRatioBand(pr.P)
	if err != nil {
		return err
	}
	for i := range pr.G {
		r := pr.L[i] / pr.G[i]
		if r < lo-1e-9 || r > hi+1e-9 {
			return fmt.Errorf("theory: ℓ_%d/g_%d = %v outside admissible band [%v, %v] for machine %s", i, i, r, lo, hi, pr.Name)
		}
	}
	return nil
}

// SigmaWindow describes the per-level σ ranges [Min[j], Max[j]] over which
// an algorithm has been certified β-optimal on M(2^{j+1}, σ); it is the
// (σ^m, σ^M) pair of vectors of Theorem 3.4 (indexed 0..log p̂ - 1).
type SigmaWindow struct {
	Min, Max []float64
}

// AdmissibleRatioBand returns the band [lo, hi] that every ratio ℓ_i/g_i
// of a p-processor D-BSP must lie in for Theorem 3.4 to apply:
//
//	lo = max_{1<=k<=log p} σ^m_{k-1}·2^k/p,   hi = min_k σ^M_{k-1}·2^k/p.
func (w SigmaWindow) AdmissibleRatioBand(p int) (lo, hi float64, err error) {
	lp := int(math.Round(math.Log2(float64(p))))
	if lp < 1 || 1<<uint(lp) != p {
		return 0, 0, fmt.Errorf("theory: p=%d not a power of two", p)
	}
	if len(w.Min) < lp || len(w.Max) < lp {
		return 0, 0, fmt.Errorf("theory: σ-window has %d levels, need %d", len(w.Min), lp)
	}
	hi = math.Inf(1)
	for k := 1; k <= lp; k++ {
		scale := float64(int64(1)<<uint(k)) / float64(p)
		if v := w.Min[k-1] * scale; v > lo {
			lo = v
		}
		if v := w.Max[k-1] * scale; v < hi {
			hi = v
		}
	}
	if lo > hi {
		return lo, hi, fmt.Errorf("theory: empty admissible band [%v, %v]", lo, hi)
	}
	return lo, hi, nil
}
