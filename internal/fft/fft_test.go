package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
	"netoblivious/internal/tracetest"
)

func randInput(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestSeqFFTMatchesDFT validates the fast reference against the direct sum.
func TestSeqFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randInput(rng, n)
		if err := maxErr(SeqFFT(x), SeqDFT(x)); err > 1e-8*float64(n) {
			t.Errorf("n=%d: SeqFFT vs SeqDFT err %v", n, err)
		}
	}
}

// TestTransformCorrectness: the recursive network-oblivious FFT against the
// reference, for powers of two with both even and odd logs.
func TestTransformCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		x := randInput(rng, n)
		res, err := Transform(x, Options{Wise: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxErr(res.Out, SeqFFT(x)); e > 1e-8*float64(n) {
			t.Errorf("n=%d: err %v", n, e)
		}
	}
}

// TestTransformIterativeCorrectness: the butterfly baseline.
func TestTransformIterativeCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 64, 512} {
		x := randInput(rng, n)
		res, err := TransformIterative(x, Options{Wise: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e := maxErr(res.Out, SeqFFT(x)); e > 1e-8*float64(n) {
			t.Errorf("n=%d: err %v", n, e)
		}
	}
}

// TestDelta: the transform of a unit impulse is the all-ones vector.
func TestDelta(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	x[0] = 1
	res, err := Transform(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Out {
		if cmplx.Abs(v-1) > 1e-9 {
			t.Fatalf("impulse response at %d: %v, want 1", k, v)
		}
	}
}

// TestTransformComplexity verifies Theorem 4.5's shape and that the
// recursive algorithm beats the iterative baseline where the theory says
// it must (p large relative to n).
func TestTransformComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1 << 10
	x := randInput(rng, n)
	rec, err := Transform(x, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	recFS := tracetest.Summary(t, rec.Trace)
	it, err := TransformIterative(x, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	itFS := tracetest.Summary(t, it.Trace)
	for p := 2; p <= n; p *= 4 {
		h := eval.H(recFS, p, 0)
		pred := theory.PredictedFFT(float64(n), p, 0)
		if ratio := h / pred; ratio > 12 || ratio < 0.05 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v)", p, h, pred, ratio)
		}
	}
	// At p = n (full parallelism) the recursive algorithm's message load
	// is Θ(n·log n/log(n/p)) hmm — compare superstep-weighted: with σ>0
	// the baseline pays σ·log n vs recursive σ·(2^i sum) = O(log n)...
	// The decisive regime: p close to n, σ large: iterative pays
	// Θ(σ log n), recursive Θ(σ·log n/log(n/p))·... both O(log n) at p=n.
	// The separation shows at moderate p with σ: iterative σ·log p vs
	// recursive σ·log n/log(n/p).
	p := 1 << 5         // p = 32, n = 1024: log n/log(n/p) = 2, log p = 5
	sigma := float64(n) // make σ dominate
	hRec := eval.H(recFS, p, sigma)
	hIt := eval.H(itFS, p, sigma)
	if hRec >= hIt {
		t.Errorf("recursive (%v) should beat iterative (%v) at p=%d σ=%v", hRec, hIt, p, sigma)
	}
}

// TestWiseness: the FFT algorithm with dummies is (Θ(1), n)-wise.
func TestWiseness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 256
	x := randInput(rng, n)
	res, err := Transform(x, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= n; p *= 4 {
		if alpha := eval.Wiseness(fs, p); alpha < 0.05 {
			t.Errorf("α(%d) = %v, want Θ(1)", p, alpha)
		}
	}
}

// TestFoldingLemmaOnFFT: Lemma 3.1 on the real trace.
func TestFoldingLemmaOnFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 256
	res, err := Transform(randInput(rng, n), Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= n; p *= 2 {
		if err := eval.CheckFoldingLemma(fs, p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

// TestLinearity is a property test: FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	x, y := randInput(rng, n), randInput(rng, n)
	a := complex(1.7, -0.3)
	z := make([]complex128, n)
	for i := range z {
		z[i] = a*x[i] + y[i]
	}
	rx, err := Transform(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ry, err := Transform(y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rz, err := Transform(z, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range rz.Out {
		want := a*rx.Out[k] + ry.Out[k]
		if cmplx.Abs(rz.Out[k]-want) > 1e-8 {
			t.Fatalf("linearity broken at %d: %v vs %v", k, rz.Out[k], want)
		}
	}
}

// TestParseval checks energy conservation: Σ|X|² = n·Σ|x|².
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 128
	x := randInput(rng, n)
	res, err := Transform(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ein, eout float64
	for i := range x {
		ein += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eout += real(res.Out[i])*real(res.Out[i]) + imag(res.Out[i])*imag(res.Out[i])
	}
	if math.Abs(eout-float64(n)*ein) > 1e-6*eout {
		t.Errorf("Parseval: out %v vs n·in %v", eout, float64(n)*ein)
	}
}

// TestValidation rejects non-power-of-two inputs.
func TestValidation(t *testing.T) {
	if _, err := Transform(make([]complex128, 3), Options{}); err == nil {
		t.Error("want error for n=3")
	}
	if _, err := TransformIterative(nil, Options{}); err == nil {
		t.Error("want error for empty input")
	}
}
