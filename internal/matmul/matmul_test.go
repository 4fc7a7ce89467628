package matmul

import (
	"math"
	"math/rand"
	"testing"

	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
	"netoblivious/internal/tracetest"
)

func randMatrix(rng *rand.Rand, s int) []int64 {
	m := make([]int64, s*s)
	for i := range m {
		m[i] = int64(rng.Intn(200) - 100)
	}
	return m
}

func TestSeqMultiplyIdentity(t *testing.T) {
	s := 4
	id := make([]int64, s*s)
	for i := 0; i < s; i++ {
		id[i*s+i] = 1
	}
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, s)
	got := SeqMultiply(s, a, id, Plus())
	for i := range a {
		if got[i] != a[i] {
			t.Fatalf("A·I != A at %d: %d vs %d", i, got[i], a[i])
		}
	}
}

// TestMultiplyCorrectness checks the 8-way algorithm against the reference
// for every supported side, including the gather sizes (s not a power of 8).
func TestMultiplyCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		a := randMatrix(rng, s)
		b := randMatrix(rng, s)
		res, err := Multiply(s, a, b, Options{Wise: true})
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		want := SeqMultiply(s, a, b, Plus())
		for i := range want {
			if res.C[i] != want[i] {
				t.Fatalf("s=%d: C[%d] = %d, want %d", s, i, res.C[i], want[i])
			}
		}
	}
}

// TestMultiplyTropical exercises a different semiring (min-plus shortest
// paths), confirming the algorithm uses only Add/Mul/Zero.
func TestMultiplyTropical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := 8
	tro := Tropical()
	a := make([]int64, s*s)
	for i := range a {
		a[i] = int64(rng.Intn(50))
	}
	res, err := MultiplySemiring(s, a, a, tro, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := SeqMultiply(s, a, a, tro)
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("tropical C[%d] = %d, want %d", i, res.C[i], want[i])
		}
	}
}

// TestSpaceEfficientCorrectness checks the 4-way two-round variant.
func TestSpaceEfficientCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		a := randMatrix(rng, s)
		b := randMatrix(rng, s)
		res, err := MultiplySpaceEfficient(s, a, b, Options{Wise: true})
		if err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		want := SeqMultiply(s, a, b, Plus())
		for i := range want {
			if res.C[i] != want[i] {
				t.Fatalf("s=%d: C[%d] = %d, want %d", s, i, res.C[i], want[i])
			}
		}
	}
}

// TestMultiplyComplexity verifies Theorem 4.2's shape: the measured H at
// σ=0 stays within a constant factor of n/p^{2/3}, and the superstep count
// is O(log p).
func TestMultiplyComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := 32 // n = 1024
	n := float64(s * s)
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	res, err := Multiply(s, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= s*s; p *= 4 {
		f := eval.Fold(fs, p)
		h := f.H(0)
		pred := theory.PredictedMM(n, p, 0)
		ratio := h / pred
		if ratio > 16 || ratio < 0.05 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v) outside constant band", p, h, pred, ratio)
		}
		steps := float64(f.Supersteps())
		if lim := 8 * (1 + math.Log2(float64(p))); steps > lim {
			t.Errorf("p=%d: %v supersteps, want O(log p) <= %v", p, steps, lim)
		}
	}
}

// TestSpaceEfficientComplexity verifies the O(n/√p + σ√p) shape.
func TestSpaceEfficientComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := 32
	n := float64(s * s)
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	res, err := MultiplySpaceEfficient(s, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 4; p <= s*s; p *= 4 {
		h := eval.H(fs, p, 0)
		pred := theory.PredictedMMSpace(n, p, 0)
		ratio := h / pred
		if ratio > 16 || ratio < 0.05 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v)", p, h, pred, ratio)
		}
	}
}

// TestWisenessConstant: with dummy messages both algorithms are
// (Θ(1), n)-wise; without, wiseness may degrade.
func TestWisenessConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := 16
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	res, err := Multiply(s, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= s*s; p *= 4 {
		if alpha := eval.Wiseness(fs, p); alpha < 0.05 {
			t.Errorf("8-way: α(%d) = %v, want Θ(1)", p, alpha)
		}
	}
	res2, err := MultiplySpaceEfficient(s, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs2 := tracetest.Summary(t, res2.Trace)
	for p := 2; p <= s*s; p *= 4 {
		if alpha := eval.Wiseness(fs2, p); alpha < 0.05 {
			t.Errorf("space-efficient: α(%d) = %v, want Θ(1)", p, alpha)
		}
	}
}

// TestFoldingLemmaOnMM: Lemma 3.1 must hold on the real algorithm traces.
func TestFoldingLemmaOnMM(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := 16
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	res, err := Multiply(s, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= s*s; p *= 2 {
		if err := eval.CheckFoldingLemma(fs, p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

// TestMemoryBlowup contrasts the two variants: the 8-way holds Θ(n^{1/3})
// entries per VP at the recursion leaves, the space-efficient one O(log n).
func TestMemoryBlowup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := 64 // n = 4096, n^{1/3} = 16
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	r8, err := Multiply(s, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := MultiplySpaceEfficient(s, a, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := float64(s * s)
	cbrt := math.Cbrt(n)
	if float64(r8.PeakEntries) < cbrt {
		t.Errorf("8-way peak %d entries, want >= n^{1/3} = %v", r8.PeakEntries, cbrt)
	}
	logBound := 6 * math.Log2(n)
	if float64(rsp.PeakEntries) > logBound {
		t.Errorf("space-efficient peak %d entries, want O(log n) <= %v", rsp.PeakEntries, logBound)
	}
	if rsp.PeakEntries*2 > r8.PeakEntries {
		t.Errorf("space-efficient (%d) not clearly smaller than 8-way (%d)", rsp.PeakEntries, r8.PeakEntries)
	}
}

// TestValidation rejects bad inputs.
func TestValidation(t *testing.T) {
	if _, err := Multiply(3, make([]int64, 9), make([]int64, 9), Options{}); err == nil {
		t.Error("want error for s=3")
	}
	if _, err := Multiply(4, make([]int64, 7), make([]int64, 16), Options{}); err == nil {
		t.Error("want error for wrong lengths")
	}
}
