package broadcast

import (
	"testing"

	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
)

func checkAll(t *testing.T, got []int64, want int64) {
	t.Helper()
	for i, v := range got {
		if v != want {
			t.Fatalf("VP %d got %d, want %d", i, v, want)
		}
	}
}

func TestObliviousDelivers(t *testing.T) {
	for _, v := range []int{2, 4, 16, 256} {
		res, err := Oblivious(v, 42, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, res.Got, 42)
		// log v supersteps of degree 1 each.
		if got := res.Trace.NumSupersteps(); got != trLog(v) {
			t.Errorf("v=%d: %d supersteps, want %d", v, got, trLog(v))
		}
	}
}

func trLog(v int) int {
	l := 0
	for 1<<uint(l) < v {
		l++
	}
	return l
}

func TestObliviousFlatDelivers(t *testing.T) {
	for _, v := range []int{2, 8, 64} {
		res, err := ObliviousFlat(v, 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkAll(t, res.Got, 7)
		if res.Trace.NumSupersteps() != 1 {
			t.Errorf("v=%d: %d supersteps, want 1", v, res.Trace.NumSupersteps())
		}
	}
}

func TestAwareDelivers(t *testing.T) {
	for _, p := range []int{2, 4, 16, 128, 1024} {
		for _, sigma := range []float64{0, 1, 3, 16, 100, 5000} {
			res, err := Aware(p, sigma, 13, Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkAll(t, res.Got, 13)
		}
	}
}

func TestKappaFor(t *testing.T) {
	cases := map[float64]int{0: 2, 1: 2, 2: 2, 3: 4, 16: 16, 17: 32, 1000: 1024}
	for sigma, want := range cases {
		if got := KappaFor(sigma); got != want {
			t.Errorf("KappaFor(%v) = %d, want %d", sigma, got, want)
		}
	}
}

// TestAwareMatchesLowerBound: the σ-aware algorithm is O(1)-optimal: its
// measured H stays within a constant factor of Theorem 4.15's bound.
func TestAwareMatchesLowerBound(t *testing.T) {
	for _, p := range []int{16, 256, 1024} {
		for _, sigma := range []float64{0, 2, 8, 64, 512, 4096} {
			res, err := Aware(p, sigma, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fs := res.Trace.Summary()
			h := eval.H(fs, p, sigma)
			lb := theory.LowerBoundBroadcast(p, sigma)
			if h < lb*0.4 {
				t.Errorf("p=%d σ=%v: H=%v below lower bound %v", p, sigma, h, lb)
			}
			if h > lb*6 {
				t.Errorf("p=%d σ=%v: H=%v not O(1)-optimal vs %v", p, sigma, h, lb)
			}
		}
	}
}

// TestObliviousGapGrows: the binary-tree oblivious algorithm degrades as
// σ grows, following the Theorem 4.16 curve: GAP(σ) = Θ(log σ) for fixed
// p >= σ, while the theorem's lower-bound curve is
// Ω(log σ2/(log 2 + log log σ2)).
func TestObliviousGapGrows(t *testing.T) {
	const p = 1024
	res, err := Oblivious(p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Trace.Summary()
	gap := func(sigma float64) float64 {
		return eval.H(fs, p, sigma) / theory.LowerBoundBroadcast(p, sigma)
	}
	g8 := gap(8)
	g512 := gap(512)
	if g512 <= g8 {
		t.Errorf("oblivious gap should grow with σ: gap(8)=%v, gap(512)=%v", g8, g512)
	}
	// Theorem 4.16: the measured worst gap over [0, σ2] dominates the
	// theoretical lower-bound curve (up to its constant).
	for _, sigma2 := range []float64{16, 256, 4096} {
		worst := 0.0
		for s := 0.0; s <= sigma2; s = s*2 + 1 {
			if g := gap(s); g > worst {
				worst = g
			}
		}
		lb := theory.GapLowerBound(0, sigma2)
		if worst < lb*0.5 {
			t.Errorf("σ2=%v: measured worst gap %v below Theorem 4.16 curve %v", sigma2, worst, lb)
		}
	}
}

// TestFlatVsTreeCrossover: the star is better when σ is enormous relative
// to p (one superstep), the tree better for small σ.
func TestFlatVsTreeCrossover(t *testing.T) {
	const p = 64
	tree, err := Oblivious(p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	treeFS := tree.Trace.Summary()
	star, err := ObliviousFlat(p, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	starFS := star.Trace.Summary()
	hTree := func(s float64) float64 { return eval.H(treeFS, p, s) }
	hStar := func(s float64) float64 { return eval.H(starFS, p, s) }
	if hTree(0) >= hStar(0) {
		t.Errorf("σ=0: tree (%v) should beat star (%v)", hTree(0), hStar(0))
	}
	if hTree(1<<20) <= hStar(1<<20) {
		t.Errorf("σ=2^20: star (%v) should beat tree (%v)", hStar(1<<20), hTree(1<<20))
	}
}

// TestValidation rejects invalid sizes.
func TestValidation(t *testing.T) {
	if _, err := Oblivious(3, 1, Options{}); err == nil {
		t.Error("want error for v=3")
	}
	if _, err := Aware(1, 0, 1, Options{}); err == nil {
		t.Error("want error for p=1")
	}
}
