package matmul

import (
	"math"
	"math/rand"
	"testing"

	"netoblivious/internal/eval"
)

func randRect(rng *rand.Rand, m, n int) []int64 {
	x := make([]int64, m*n)
	for i := range x {
		x[i] = int64(rng.Intn(40) - 20)
	}
	return x
}

// TestSeqMultiplyRect cross-checks the rectangular reference against the
// square one.
func TestSeqMultiplyRect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := 8
	a, b := randRect(rng, s, s), randRect(rng, s, s)
	got := SeqMultiplyRect(s, s, s, a, b, Plus())
	want := SeqMultiply(s, a, b, Plus())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rect reference diverges at %d", i)
		}
	}
}

// TestMultiplyRectCorrectness sweeps shapes: tall, wide, inner-heavy,
// square, and degenerate vectors, across machine sizes.
func TestMultiplyRectCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	shapes := [][3]int{
		{8, 8, 8}, {16, 4, 4}, {4, 16, 4}, {4, 4, 16},
		{32, 2, 8}, {2, 32, 8}, {8, 32, 2}, {1, 16, 16}, {16, 16, 1}, {1, 64, 1},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randRect(rng, m, k), randRect(rng, k, n)
		want := SeqMultiplyRect(m, k, n, a, b, Plus())
		for v := 1; v <= m*k*n && v <= 64; v *= 4 {
			res, err := MultiplyRect(m, k, n, v, a, b, Options{Wise: true})
			if err != nil {
				t.Fatalf("shape %v v=%d: %v", sh, v, err)
			}
			for i := range want {
				if res.C[i] != want[i] {
					t.Fatalf("shape %v v=%d: C[%d] = %d, want %d", sh, v, i, res.C[i], want[i])
				}
			}
		}
	}
}

// TestMultiplyRectMatchesSquareBound: on square inputs the rectangular
// recursion meets the same Θ(n_entries/p^{2/3}) communication shape as the
// 8-way algorithm (it is the same 3D blocking, discovered dimension by
// dimension).
func TestMultiplyRectMatchesSquareBound(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := 32
	v := 1024
	a, b := randRect(rng, s, s), randRect(rng, s, s)
	res, err := MultiplyRect(s, s, s, v, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Trace.Summary()
	for p := 4; p <= v; p *= 4 {
		h := eval.H(fs, p, 0)
		pred := float64(s*s) / math.Pow(float64(p), 2.0/3.0)
		if ratio := h / pred; ratio > 24 || ratio < 0.1 {
			t.Errorf("p=%d: H=%v vs n/p^{2/3}=%v (ratio %v)", p, h, pred, ratio)
		}
	}
}

// TestMultiplyRectTallSkinnyBound: for dominantly one-dimensional shapes
// the k-splits dominate and communication is governed by the input sizes,
// not the 3D bound — the regime CARMA handles and square-only algorithms
// miss.
func TestMultiplyRectTallSkinny(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	m, k, n := 512, 4, 4
	v := 256
	a, b := randRect(rng, m, k), randRect(rng, k, n)
	res, err := MultiplyRect(m, k, n, v, a, b, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Trace.Summary()
	want := SeqMultiplyRect(m, k, n, a, b, Plus())
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("C[%d] mismatch", i)
		}
	}
	// m-splits only partition (B is tiny): per-fold load stays near the
	// input term (mk + kn + mn)/p.
	for p := 4; p <= v; p *= 4 {
		h := eval.H(fs, p, 0)
		inputs := float64(m*k+k*n+m*n) / float64(p)
		if h > 40*inputs {
			t.Errorf("p=%d: H=%v far above input term %v", p, h, inputs)
		}
	}
}

// TestMultiplyRectTropical: semiring generality carries over.
func TestMultiplyRectTropical(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	tro := Tropical()
	m, k, n := 8, 16, 4
	a, b := randRect(rng, m, k), randRect(rng, k, n)
	for i := range a {
		if a[i] < 0 {
			a[i] = -a[i]
		}
	}
	for i := range b {
		if b[i] < 0 {
			b[i] = -b[i]
		}
	}
	res, err := MultiplyRectSemiring(m, k, n, 32, a, b, tro, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := SeqMultiplyRect(m, k, n, a, b, tro)
	for i := range want {
		if res.C[i] != want[i] {
			t.Fatalf("tropical C[%d] = %d, want %d", i, res.C[i], want[i])
		}
	}
}

// TestMultiplyRectValidation rejects bad parameters.
func TestMultiplyRectValidation(t *testing.T) {
	if _, err := MultiplyRect(3, 4, 4, 4, make([]int64, 12), make([]int64, 16), Options{}); err == nil {
		t.Error("want error for non-power-of-two m")
	}
	if _, err := MultiplyRect(2, 2, 2, 16, make([]int64, 4), make([]int64, 4), Options{}); err == nil {
		t.Error("want error for v > m·k·n")
	}
	if _, err := MultiplyRect(4, 4, 4, 4, make([]int64, 15), make([]int64, 16), Options{}); err == nil {
		t.Error("want error for wrong |A|")
	}
}
