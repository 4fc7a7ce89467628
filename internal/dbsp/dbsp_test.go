package dbsp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/eval"
	"netoblivious/internal/randalg"
	"netoblivious/internal/tracetest"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 3, nil, nil); err == nil {
		t.Error("want error for non-power-of-two p")
	}
	if _, err := New("x", 4, []float64{1}, []float64{1, 1}); err == nil {
		t.Error("want error for wrong vector lengths")
	}
	if _, err := New("x", 4, []float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("want error for nonpositive g")
	}
	if _, err := New("x", 4, []float64{1, 1}, []float64{1, math.Inf(1)}); err == nil {
		t.Error("want error for infinite l")
	}
	if _, err := New("x", 4, []float64{2, 1}, []float64{4, 1}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestAdmissibility(t *testing.T) {
	// Increasing g violates the hypothesis of Theorem 3.4.
	bad := MustNew("bad-g", 4, []float64{1, 2}, []float64{2, 2})
	if err := bad.Admissible(); err == nil || !strings.Contains(err.Error(), "g is increasing") {
		t.Errorf("want g-increasing error, got %v", err)
	}
	// Increasing ℓ/g likewise.
	bad2 := MustNew("bad-lg", 4, []float64{2, 2}, []float64{2, 4})
	if err := bad2.Admissible(); err == nil || !strings.Contains(err.Error(), "ℓ/g is increasing") {
		t.Errorf("want ratio-increasing error, got %v", err)
	}
	for _, p := range []int{4, 16, 64, 256} {
		for _, pr := range Presets(p) {
			if err := pr.Admissible(); err != nil {
				t.Errorf("preset %s not admissible: %v", pr.Name, err)
			}
		}
	}
}

func TestMeshVectors(t *testing.T) {
	pr := Mesh(2, 16)
	// i-cluster has 16/2^i processors; g_i = sqrt of that.
	want := []float64{4, math.Sqrt(8), 2, math.Sqrt(2)}
	for i, w := range want {
		if math.Abs(pr.G[i]-w) > 1e-12 {
			t.Errorf("mesh-2D g[%d] = %v, want %v", i, pr.G[i], w)
		}
	}
	hc := Hypercube(16)
	wantL := []float64{4, 3, 2, 1}
	for i, w := range wantL {
		if hc.L[i] != w || hc.G[i] != 1 {
			t.Errorf("hypercube level %d: g=%v l=%v, want 1, %v", i, hc.G[i], hc.L[i], w)
		}
	}
}

// TestCommTimeMatchesHOnUniform: on Uniform(p, 1, σ) the D-BSP time equals
// the evaluation-model complexity H(n, p, σ) — the paper notes M(p, σ) is
// exactly BSP with g=1, ℓ=σ.
func TestCommTimeMatchesHOnUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		v := 1 << uint(2+rng.Intn(4))
		spec := randalg.Random(rng, v, 5, 3)
		tr, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		fs := tracetest.Summary(t, tr)
		for p := 2; p <= v; p *= 2 {
			for _, sigma := range []float64{0, 1, 7} {
				d := CommTimeSummary(fs, Uniform(p, 1, sigma))
				if want := eval.H(fs, p, sigma); math.Abs(d-want) > 1e-9 {
					t.Errorf("trial %d p=%d σ=%v: D=%v, want %v", trial, p, sigma, d, want)
				}
			}
		}
	}
}

// TestAscendDescendDelivers: the executable protocol must route every
// message to its destination and produce a profile whose per-level degrees
// obey Lemma 5.1's bound.
func TestAscendDescendDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		v := 1 << uint(2+rng.Intn(4)) // 4..32
		spec := randalg.Random(rng, v, 4, 3)
		tr, err := core.RunOpt(v, spec.Program(), core.Options{RecordMessages: true})
		if err != nil {
			t.Fatal(err)
		}
		for p := 2; p <= v; p *= 2 {
			pc, err := AscendDescend(tr, p)
			if err != nil {
				t.Fatalf("trial %d p=%d: %v", trial, p, err)
			}
			lp := core.Log2(p)
			if len(pc.F) != lp || len(pc.S) != lp {
				t.Fatalf("profile lengths %d/%d, want %d", len(pc.F), len(pc.S), lp)
			}
			// Lemma 5.1: per original superstep of label i, for each
			// k in (i, log p), O(1) k-supersteps of degree
			// O(2^k·h_s(n,2^k)/p) plus O(log p) constant-degree ones.
			// Check the aggregate: F[k] <= Σ_s (2·2^{k+1}·h_s(2^{k+1})/p
			// + 4·log p + 2·h_s... we use the safe aggregate constant 8.
			for k := 0; k < lp; k++ {
				var bound int64
				for si := range tr.Steps {
					rec := &tr.Steps[si]
					if rec.Label >= lp || rec.Label > k {
						continue
					}
					var h int64
					if k+1 <= tr.LogV {
						h = rec.Degree[k+1]
					}
					per := 8 * (int64(1)<<uint(k+1)*h/int64(p) + 1 + int64(lp))
					bound += per
				}
				if pc.F[k] > bound {
					t.Errorf("trial %d p=%d: F[%d]=%d exceeds Lemma 5.1 bound %d", trial, p, k, pc.F[k], bound)
				}
			}
		}
	}
}

// TestAscendDescendUnbalancedPair reproduces the Section 5 motivating
// example: VP 0 sends n messages to VP v/2.  Standard execution costs
// n·g_0; the ascend–descend protocol spreads the messages and pays
// O(n/p·Σ g_k + polylog) — strictly better on machines with steep g.
func TestAscendDescendUnbalancedPair(t *testing.T) {
	const v = 64
	const n = 4096
	tr, err := core.RunOpt(v, func(vp *core.VP[int]) {
		if vp.ID() == 0 {
			for k := 0; k < n; k++ {
				vp.Send(v/2, k)
			}
		}
		vp.Sync(0)
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	p := v
	pr := Mesh(1, p) // steep: g_0 = p
	standard := CommTimeSummary(tracetest.Summary(t, tr), pr)
	pc, err := AscendDescend(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	rebalanced := pc.CommTime(pr)
	if rebalanced >= standard {
		t.Errorf("ascend–descend did not help: %v >= %v", rebalanced, standard)
	}
	// Standard pays ~ n·g_0 = n·p; rebalanced ~ (n/p)·Σ2^k + prefix —
	// expect at least a 4x improvement at these sizes.
	if rebalanced*4 > standard {
		t.Errorf("improvement too small: standard %v, rebalanced %v", standard, rebalanced)
	}
}

// TestAscendDescendNeedsPairs: a trace without pairs is rejected.
func TestAscendDescendNeedsPairs(t *testing.T) {
	tr, err := core.Run(4, func(vp *core.VP[int]) {
		vp.Send(vp.ID()^1, 1)
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AscendDescend(tr, 4); err == nil {
		t.Error("want error for trace without RecordMessages")
	}
}

// TestCommTimeOf checks the vector form, and the summary form built on
// it, against Eq. 2 evaluated by hand.
func TestCommTimeOf(t *testing.T) {
	tr, err := core.Run(8, func(vp *core.VP[int]) {
		vp.Send(7-vp.ID(), 0)
		vp.Sync(0)
		vp.Send(vp.ID()^1, 0)
		vp.Sync(2)
	})
	if err != nil {
		t.Fatal(err)
	}
	pr := Hypercube(8)
	// v=8 on Hypercube(8) (g = 1, ℓ = [3 2 1]): the complement exchange
	// is a 0-superstep of degree 1 (1·1 + 3) and the pair exchange a
	// 2-superstep of degree 1 (1·1 + 1).
	fs := tracetest.Summary(t, tr)
	const want = 6
	if got := CommTimeOf(fs.F(8), fs.S(), pr); got != want {
		t.Errorf("CommTimeOf = %v, want %v", got, want)
	}
	if got := CommTimeSummary(fs, pr); got != want {
		t.Errorf("CommTimeSummary = %v, want %v", got, want)
	}
}
