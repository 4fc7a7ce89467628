package eval

import (
	"math/rand"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/randalg"
	"netoblivious/internal/tracetest"
)

// runPattern executes a fixed communication pattern and returns the
// FoldSummary of its trace.
func runPattern(t *testing.T, v int, prog core.Program[int]) *core.FoldSummary {
	t.Helper()
	tr, err := core.Run(v, prog)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Summary()
}

// TestHAllToComplement: v=8, every VP sends one message to its bitwise
// complement in a 0-superstep.  Folding on p: each block of v/p VPs sends
// and receives v/p messages, all crossing the top-level boundary, so
// F_0(n,p) = v/p and H = v/p + 2σ (two 0-supersteps: the communication
// one and the final empty sync).
func TestHAllToComplement(t *testing.T) {
	const v = 8
	fs := runPattern(t, v, func(vp *core.VP[int]) {
		vp.Send(v-1-vp.ID(), 0)
		vp.Sync(0)
		vp.Sync(0)
	})
	for _, p := range []int{2, 4, 8} {
		f := Fold(fs, p)
		wantF := int64(v / p)
		if f.F[0] != wantF {
			t.Errorf("p=%d: F_0 = %d, want %d", p, f.F[0], wantF)
		}
		for _, sigma := range []float64{0, 1, 2.5, 100} {
			got := f.H(sigma)
			want := float64(wantF) + 2*sigma
			if got != want {
				t.Errorf("p=%d σ=%v: H = %v, want %v", p, sigma, got, want)
			}
		}
	}
}

// TestWisenessPerfect: the complement pattern is (1, p)-wise: at every fold
// every block sends exactly v/2^j messages out, so the defining ratio is
// exactly 1.
func TestWisenessPerfect(t *testing.T) {
	const v = 16
	fs := runPattern(t, v, func(vp *core.VP[int]) {
		vp.Send(v-1-vp.ID(), 0)
		vp.Sync(0)
		vp.Sync(0)
	})
	for _, p := range []int{2, 4, 8, 16} {
		if alpha := Wiseness(fs, p); alpha != 1 {
			t.Errorf("p=%d: α = %v, want 1", p, alpha)
		}
	}
}

// TestWisenessUnbalancedPair reproduces the paper's Section 5 example: a
// single 0-superstep where VP 0 sends n messages to VP v/2.  The algorithm
// is (α, p)-wise only for α = O(1/p): F_i(n,2^j) = n for every fold, so
// the ratio at j=1 is n·2/(p·Σ F_i(n,p)) = 2/p.
func TestWisenessUnbalancedPair(t *testing.T) {
	const v = 16
	const n = 64
	fs := runPattern(t, v, func(vp *core.VP[int]) {
		if vp.ID() == 0 {
			for k := 0; k < n; k++ {
				vp.Send(v/2, k)
			}
		}
		vp.Sync(0)
		vp.Sync(0)
	})
	for _, p := range []int{4, 8, 16} {
		want := 2.0 / float64(p)
		if alpha := Wiseness(fs, p); alpha != want {
			t.Errorf("p=%d: α = %v, want %v", p, alpha, want)
		}
		// ... but it is (Θ(1), p)-full: F sums are n >= γ·(p/2^j)·S sums
		// with S = 2 supersteps.  γ = min_j n·2^j/(p·#{i<j steps}).
		// At j=1: n·2/(p·2) = n/p.
		gamma := Fullness(fs, p)
		if gamma < 1 {
			t.Errorf("p=%d: γ = %v, want >= 1 (full algorithm)", p, gamma)
		}
	}
}

// TestFoldingLemmaOnRandomAlgorithms is the property test for Lemma 3.1:
// for every randomly generated static algorithm and every fold, the
// folding inequality holds, wiseness is in [0,1], and the runtime's degree
// accounting matches a brute-force recount.
func TestFoldingLemmaOnRandomAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(20160301))
	for trial := 0; trial < 60; trial++ {
		v := 1 << uint(1+rng.Intn(5)) // 2..32
		spec := randalg.Random(rng, v, 5, 3)
		var c tracetest.Collector
		tr, err := spec.RunSpec(alg.Spec{Sink: &c})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fs := tr.Summary()
		for p := 2; p <= v; p *= 2 {
			if err := CheckFoldingLemma(fs, p); err != nil {
				t.Errorf("trial %d (v=%d, p=%d): %v", trial, v, p, err)
			}
			alpha := Wiseness(fs, p)
			if alpha < 0 || alpha > 1 {
				t.Errorf("trial %d: α(%d) = %v out of [0,1]", trial, p, alpha)
			}
			// Cross-check every superstep degree against brute force.
			for st := range spec.Steps {
				want := spec.ExpectedDegree(st, p)
				got := c.Steps[st].Degree[core.Log2(p)]
				if got != want {
					t.Errorf("trial %d step %d p=%d: degree %d, want %d", trial, st, p, got, want)
				}
			}
		}
	}
}

// TestWisenessMonotonicity: the paper notes that an (α, p)-wise algorithm
// is also (α', p')-wise for α' <= α, p' <= p.  Our measured α is the
// maximal one, so α(p') >= α(p) must hold... not in general; what holds is
// that the pair (α(p), p) dominates: algorithm is (α(p), p')-wise for all
// p' <= p.  Verify directly from the definition.
func TestWisenessMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		v := 1 << uint(2+rng.Intn(4)) // 4..32
		spec := randalg.Random(rng, v, 4, 2)
		tr, err := core.Run(spec.V, spec.Program())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fs := tr.Summary()
		alphaV := Wiseness(fs, v)
		for p := 2; p < v; p *= 2 {
			// (α(v), v)-wise implies (α(v), p)-wise: measured α(p) >= α(v).
			if ap := Wiseness(fs, p); ap+1e-12 < alphaV {
				t.Errorf("trial %d: α(%d)=%v < α(%d)=%v violates Def 3.2 monotonicity", trial, p, ap, v, alphaV)
			}
		}
	}
}

// TestHAdditivity: H(n,p,σ) is affine in σ with slope = number of
// supersteps with label < log p.
func TestHAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := randalg.Random(rng, 16, 6, 2)
	tr, err := core.Run(spec.V, spec.Program())
	if err != nil {
		t.Fatal(err)
	}
	fs := tr.Summary()
	for p := 2; p <= 16; p *= 2 {
		f := Fold(fs, p)
		h0 := f.H(0)
		for _, sigma := range []float64{1, 3, 10} {
			if got, want := f.H(sigma), h0+sigma*float64(f.Supersteps()); got != want {
				t.Errorf("p=%d σ=%v: H=%v, want %v", p, sigma, got, want)
			}
		}
		if h0 != float64(f.MessageLoad()) {
			t.Errorf("p=%d: H(0)=%v != message load %d", p, h0, f.MessageLoad())
		}
	}
}

// TestBetaOptimality covers the ratio clamp.
func TestBetaOptimality(t *testing.T) {
	cases := []struct {
		lower, measured, want float64
	}{
		{10, 20, 0.5},
		{20, 10, 1},
		{0, 0, 1},
		{0, 5, 0},
		{5, 0, 0},
		{-3, 7, 0},
	}
	for _, c := range cases {
		if got := BetaOptimality(c.lower, c.measured); got != c.want {
			t.Errorf("BetaOptimality(%v,%v) = %v, want %v", c.lower, c.measured, got, c.want)
		}
	}
}

// TestFullnessZeroWhenNoCoarseSteps: an algorithm whose supersteps all have
// labels >= log p has a vacuous fullness.
func TestFullnessZeroWhenNoCoarseSteps(t *testing.T) {
	const v = 8
	fs := runPattern(t, v, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 0)
		vp.Sync(2)
	})
	if gamma := Fullness(fs, 2); gamma != 0 {
		t.Errorf("γ = %v, want 0 (no supersteps below log p)", gamma)
	}
}
