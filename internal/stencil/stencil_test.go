package stencil

import (
	"math/rand"
	"strings"
	"testing"

	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
	"netoblivious/internal/tracetest"
)

func randInputs(rng *rand.Rand, m int) []int64 {
	in := make([]int64, m)
	for i := range in {
		in[i] = int64(rng.Intn(1 << 20))
	}
	return in
}

func TestK(t *testing.T) {
	cases := map[int]int{2: 2, 4: 4, 8: 4, 16: 4, 32: 8, 256: 8, 512: 8, 1024: 16}
	for n, want := range cases {
		if got := K(n); got != want {
			t.Errorf("K(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRun1DCorrectness checks the parallel (n,1) evaluation against the
// sequential reference on the full space-time grid.
func TestRun1DCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		in := randInputs(rng, n)
		res, err := Run(n, 1, in, Options{Wise: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := SeqEvaluate(n, 1, in)
		for i := range want {
			if res.Grid[i] != want[i] {
				t.Fatalf("n=%d: grid[%d] = %d, want %d (x=%d t=%d)", n, i, res.Grid[i], want[i], i%n, i/n)
			}
		}
	}
}

// TestRun1DCustomK exercises non-default recursion degrees (the ablation
// knob) including ones forcing deep recursion and wavefront base cases.
func TestRun1DCustomK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 32
	in := randInputs(rng, n)
	want := SeqEvaluate(n, 1, in)
	for _, k := range []int{2, 4, 8, 16, 32} {
		res, err := RunK(n, 1, k, in, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range want {
			if res.Grid[i] != want[i] {
				t.Fatalf("k=%d: grid[%d] = %d, want %d", k, i, res.Grid[i], want[i])
			}
		}
	}
}

// TestRun2DCorrectness checks the (n,2) evaluation.
func TestRun2DCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16} {
		in := randInputs(rng, n*n)
		res, err := Run(n, 2, in, Options{Wise: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := SeqEvaluate(n, 2, in)
		for i := range want {
			if res.Grid[i] != want[i] {
				t.Fatalf("n=%d: grid[%d] = %d, want %d", n, i, res.Grid[i], want[i])
			}
		}
	}
}

// TestRun2DCustomK exercises d=2 with forced recursion degrees.
func TestRun2DCustomK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 8
	in := randInputs(rng, n*n)
	want := SeqEvaluate(n, 2, in)
	for _, k := range []int{2, 4, 8} {
		res, err := RunK(n, 2, k, in, Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range want {
			if res.Grid[i] != want[i] {
				t.Fatalf("k=%d: grid[%d] = %d, want %d", k, i, res.Grid[i], want[i])
			}
		}
	}
}

// TestStencil1Complexity verifies the H = O(n·4^{√log n}) bound of
// Theorem 4.11 (measured against the closed form, constant-factor band).
func TestStencil1Complexity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	in := randInputs(rng, n)
	res, err := Run(n, 1, in, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= n; p *= 4 {
		h := eval.H(fs, p, 0)
		pred := theory.PredictedStencil1(float64(n), p, 0)
		if ratio := h / pred; ratio > 8 || ratio < 0.005 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v)", p, h, pred, ratio)
		}
		// And H must dominate the Lemma 4.10 lower bound Ω(n).
		if h < theory.LowerBoundStencil(float64(n), 1, p, 0)*0.5 {
			t.Errorf("p=%d: H=%v below the lower bound", p, h)
		}
	}
}

// TestStencil2Complexity verifies the d=2 shape O((n²/√p)·8^{√log n}).
func TestStencil2Complexity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 16
	in := randInputs(rng, n*n)
	res, err := Run(n, 2, in, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 4; p <= n*n; p *= 4 {
		h := eval.H(fs, p, 0)
		pred := theory.PredictedStencil2(float64(n), p, 0)
		if ratio := h / pred; ratio > 8 || ratio < 0.002 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v)", p, h, pred, ratio)
		}
	}
}

// TestFoldingAndWiseness: Lemma 3.1 and (Θ(1), ·)-wiseness on stencil
// traces.
func TestFoldingAndWiseness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	res, err := Run(n, 1, randInputs(rng, n), Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := tracetest.Summary(t, res.Trace)
	for p := 2; p <= n; p *= 2 {
		if err := eval.CheckFoldingLemma(fs, p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
	for p := 2; p <= n; p *= 4 {
		if alpha := eval.Wiseness(fs, p); alpha < 0.02 {
			t.Errorf("α(%d) = %v, want Θ(1)", p, alpha)
		}
	}
}

// TestDecomposeStructure checks the Figure-1 invariants: 2k−1 phases, at
// most k tiles per phase, tiles of one phase pairwise independent
// (distinct segments), and full node coverage.
func TestDecomposeStructure(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		k := K(n)
		tiles := Decompose(n)
		byPhase := map[int][]Tile{}
		total := 0
		for _, tile := range tiles {
			byPhase[tile.Phase] = append(byPhase[tile.Phase], tile)
			total += tile.Nodes
		}
		if total != n*n {
			t.Errorf("n=%d: tiles cover %d nodes, want %d", n, total, n*n)
		}
		if len(byPhase) > 2*k-1 {
			t.Errorf("n=%d: %d phases, want <= %d", n, len(byPhase), 2*k-1)
		}
		for phase, ts := range byPhase {
			if len(ts) > k {
				t.Errorf("n=%d phase %d: %d tiles, want <= %d", n, phase, len(ts), k)
			}
			segs := map[int]bool{}
			for _, tile := range ts {
				if segs[tile.Segment] {
					t.Errorf("n=%d phase %d: duplicate segment %d", n, phase, tile.Segment)
				}
				segs[tile.Segment] = true
				if tile.Phase != tile.A+(k-1)-tile.B {
					t.Errorf("n=%d: inconsistent phase for tile %+v", n, tile)
				}
			}
		}
	}
}

// TestRenderDecomposition sanity-checks the Figure-1 ASCII rendering.
func TestRenderDecomposition(t *testing.T) {
	s := RenderDecomposition(16)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 17 { // header + 16 rows
		t.Fatalf("render has %d lines, want 17", len(lines))
	}
	// Bottom-left corner (x=0, t=0) belongs to tile A=0, B index of b=0;
	// top row must use later phases than the bottom row on average.
	if len(lines[1]) != 16 {
		t.Errorf("row length %d, want 16", len(lines[1]))
	}
}

// TestValidation rejects bad parameters.
func TestValidation(t *testing.T) {
	if _, err := Run(3, 1, make([]int64, 3), Options{}); err == nil {
		t.Error("want error for n=3")
	}
	if _, err := Run(4, 3, make([]int64, 4), Options{}); err == nil {
		t.Error("want error for d=3")
	}
	if _, err := Run(4, 1, make([]int64, 5), Options{}); err == nil {
		t.Error("want error for wrong input length")
	}
	if _, err := RunK(8, 1, 3, make([]int64, 8), Options{}); err == nil {
		t.Error("want error for non-power-of-two K")
	}
	if _, err := RunK(8, 1, 16, make([]int64, 8), Options{}); err == nil {
		t.Error("want error for K > n")
	}
}
