package harness

import (
	"math/rand"

	"netoblivious/internal/broadcast"
	"netoblivious/internal/eval"
	"netoblivious/internal/stencil"
	"netoblivious/internal/theory"
)

func randMatrix(rng *rand.Rand, s int) []int64 {
	m := make([]int64, s*s)
	for i := range m {
		m[i] = int64(rng.Intn(100))
	}
	return m
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	return x
}

func randKeys(rng *rand.Rand, n int) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	return keys
}

func randCells(rng *rand.Rand, n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(rng.Intn(1 << 20))
	}
	return in
}

func init() {
	register(Experiment{
		ID:       "E1",
		Title:    "matrix multiplication: H = Θ(n/p^{2/3} + σ·log p)",
		PaperRef: "Theorem 4.2, Lemma 4.1",
		Run:      runE1,
	})
	register(Experiment{
		ID:       "E2",
		Title:    "space-efficient MM: H = Θ(n/√p + σ·√p), O(1) memory blow-up",
		PaperRef: "Section 4.1.1",
		Run:      runE2,
	})
	register(Experiment{
		ID:       "E3",
		Title:    "FFT: H = Θ((n/p+σ)·log n/log(n/p)); beats the butterfly baseline",
		PaperRef: "Theorem 4.5, Lemma 4.4",
		Run:      runE3,
	})
	register(Experiment{
		ID:       "E4",
		Title:    "sorting: H = Θ((n/p+σ)·(log n/log(n/p))^{log_{3/2}4})",
		PaperRef: "Theorem 4.8, Lemma 4.7",
		Run:      runE4,
	})
	register(Experiment{
		ID:       "E5",
		Title:    "(n,1)-stencil: H = O(n·4^{√log n})",
		PaperRef: "Theorem 4.11, Corollary 4.12, Lemma 4.10",
		Run:      runE5,
	})
	register(Experiment{
		ID:       "E6",
		Title:    "(n,2)-stencil: H = O((n²/√p)·8^{√log n})",
		PaperRef: "Theorem 4.13, Corollary 4.14",
		Run:      runE6,
	})
	register(Experiment{
		ID:       "E7",
		Title:    "broadcast: σ-aware κ-ary optimal; oblivious GAP grows as Theorem 4.16",
		PaperRef: "Theorem 4.15, Theorem 4.16",
		Run:      runE7,
	})
}

// mmSizes returns the matrix sides for E1/E2.
func (c Config) mmSizes() []int {
	if c.Quick {
		return []int{16}
	}
	return []int{16, 32, 64}
}

func runE1(cfg Config) ([]*Result, error) {
	res := &Result{
		ID: "E1", Title: "network-oblivious 8-way matrix multiplication",
		PaperRef: "Theorem 4.2",
		Columns:  []string{"n", "p", "σ", "H(n,p,σ)", "Θ(n/p^{2/3}+σlog p)", "H/pred", "β vs LB"},
	}
	worst := 0.0
	minBeta := 1.0
	for _, s := range cfg.mmSizes() {
		n := float64(s * s)
		fs, err := cfg.Summary("matmul", s*s)
		if err != nil {
			return nil, err
		}
		for p := 4; p <= s*s; p *= 8 {
			for _, sigma := range []float64{0, 4, 64} {
				h := eval.H(fs, p, sigma)
				pred := theory.PredictedMM(n, p, sigma)
				beta := eval.BetaOptimality(theory.LowerBoundMM(n, p, sigma), h)
				if r := h / pred; r > worst {
					worst = r
				}
				if beta < minBeta {
					minBeta = beta
				}
				res.AddRow(int(n), p, sigma, h, pred, h/pred, beta)
			}
		}
	}
	res.Notes = append(res.Notes,
		"β is measured against the Lemma 4.1 lower bound with unit constants; Θ(1)-optimality = β bounded away from 0")
	res.AddCheck("H tracks Theorem 4.2 within a constant factor", worst <= 10,
		"max H/pred = %.2f (bound 10)", worst)
	res.AddCheck("Θ(1)-optimality: β bounded away from 0", minBeta >= 0.05,
		"min β = %.4f (bound 0.05)", minBeta)
	return []*Result{res}, nil
}

func runE2(cfg Config) ([]*Result, error) {
	res := &Result{
		ID: "E2", Title: "space-efficient matrix multiplication",
		PaperRef: "Section 4.1.1",
		Columns:  []string{"n", "p", "σ", "H(n,p,σ)", "Θ(n/√p+σ√p)", "H/pred", "peak entries (8-way)", "peak entries (space-eff)"},
	}
	worst := 0.0
	spaceWins := true
	for _, s := range cfg.mmSizes() {
		n := float64(s * s)
		r8, err := cfg.AlgRun("matmul", s*s)
		if err != nil {
			return nil, err
		}
		rsp, err := cfg.AlgRun("matmul-space", s*s)
		if err != nil {
			return nil, err
		}
		if rsp.PeakEntries >= r8.PeakEntries {
			spaceWins = false
		}
		fs := rsp.Summary
		for p := 4; p <= s*s; p *= 8 {
			for _, sigma := range []float64{0, 16} {
				h := eval.H(fs, p, sigma)
				pred := theory.PredictedMMSpace(n, p, sigma)
				if r := h / pred; r > worst {
					worst = r
				}
				res.AddRow(int(n), p, sigma, h, pred, h/pred, r8.PeakEntries, rsp.PeakEntries)
			}
		}
	}
	res.Notes = append(res.Notes,
		"peak entries: 8-way holds Θ(n^{1/3}) matrix entries per VP at the recursion leaves; the space-efficient variant holds O(log n) (2 per recursion frame)",
		"trade-off (Irony–Toledo–Tiskin): constant memory costs Θ(p^{1/6}) more communication")
	res.AddCheck("H tracks the Section 4.1.1 bound within a constant factor", worst <= 12,
		"max H/pred = %.2f (bound 12)", worst)
	res.AddCheck("constant-memory variant holds fewer entries than 8-way", spaceWins,
		"peak entries compared at every size")
	return []*Result{res}, nil
}

func runE3(cfg Config) ([]*Result, error) {
	sizes := []int{1 << 8, 1 << 10, 1 << 12}
	if cfg.Quick {
		sizes = []int{1 << 8}
	}
	res := &Result{
		ID: "E3", Title: "recursive FFT vs iterative butterfly baseline",
		PaperRef: "Theorem 4.5",
		Columns:  []string{"n", "p", "σ", "H recursive", "Θ((n/p+σ)·logn/log(n/p))", "H/pred", "H iterative", "iter/rec"},
	}
	worst, best := 0.0, 1e18
	for _, n := range sizes {
		rec, err := cfg.Summary("fft", n)
		if err != nil {
			return nil, err
		}
		it, err := cfg.Summary("fft-iterative", n)
		if err != nil {
			return nil, err
		}
		for p := 4; p <= n; p *= 16 {
			for _, sigma := range []float64{0, float64(n) / float64(p)} {
				hr := eval.H(rec, p, sigma)
				hi := eval.H(it, p, sigma)
				pred := theory.PredictedFFT(float64(n), p, sigma)
				r := hr / pred
				if r > worst {
					worst = r
				}
				if r < best {
					best = r
				}
				res.AddRow(n, p, sigma, hr, pred, hr/pred, hi, hi/hr)
			}
		}
	}
	res.Notes = append(res.Notes,
		"iter/rec > 1 where log p ≫ log n/log(n/p): the recursive decomposition wins exactly where Theorem 4.5 predicts",
		"the recursive variant uses three transposes per level (natural-order I/O; see DESIGN.md substitutions), so constants are ~3x the paper's single-transpose formulation")
	res.AddCheck("H tracks Theorem 4.5 within a constant factor", worst <= 8 && best >= 1,
		"H/pred in [%.2f, %.2f] (bounds [1, 8])", best, worst)
	return []*Result{res}, nil
}

func runE4(cfg Config) ([]*Result, error) {
	sizes := []int{1 << 8, 1 << 10, 1 << 12}
	if cfg.Quick {
		sizes = []int{1 << 8}
	}
	res := &Result{
		ID: "E4", Title: "recursive Columnsort",
		PaperRef: "Theorem 4.8",
		Columns:  []string{"n", "p", "σ", "H(n,p,σ)", "Θ((n/p+σ)·(logn/log(n/p))^3.419)", "H/pred", "β vs LB"},
	}
	worst := 0.0
	minBeta := 1.0
	for _, n := range sizes {
		fs, err := cfg.Summary("sort", n)
		if err != nil {
			return nil, err
		}
		for p := 4; p <= n; p *= 16 {
			for _, sigma := range []float64{0, 8} {
				h := eval.H(fs, p, sigma)
				pred := theory.PredictedSort(float64(n), p, sigma)
				beta := eval.BetaOptimality(theory.LowerBoundSort(float64(n), p, sigma), h)
				if r := h / pred; r > worst {
					worst = r
				}
				if beta < minBeta {
					minBeta = beta
				}
				res.AddRow(n, p, sigma, h, pred, h/pred, beta)
			}
		}
	}
	res.Notes = append(res.Notes,
		"Theorem 4.8 guarantees Θ(1)-optimality only for p = O(n^{1-δ}): β degrades as p → n, matching the (log n/log(n/p))^{log_{3/2}4} upper-bound growth")
	res.AddCheck("H tracks Theorem 4.8 within a constant factor", worst <= 25,
		"max H/pred = %.2f (bound 25)", worst)
	res.AddCheck("β stays positive at every grid point", minBeta > 0,
		"min β = %.4f", minBeta)
	return []*Result{res}, nil
}

func runE5(cfg Config) ([]*Result, error) {
	sizes := []int{32, 64, 128}
	if cfg.Quick {
		sizes = []int{32}
	}
	res := &Result{
		ID: "E5", Title: "(n,1)-stencil via recursive diamond decomposition",
		PaperRef: "Theorem 4.11",
		Columns:  []string{"n", "k", "p", "H(n,p,0)", "O(n·4^{√log n})", "H/pred", "LB Ω(n)", "β"},
	}
	worst := 0.0
	for _, n := range sizes {
		fs, err := cfg.Summary("stencil1", n)
		if err != nil {
			return nil, err
		}
		for p := 4; p <= n; p *= 4 {
			h := eval.H(fs, p, 0)
			pred := theory.PredictedStencil1(float64(n), p, 0)
			lb := theory.LowerBoundStencil(float64(n), 1, p, 0)
			if r := h / pred; r > worst {
				worst = r
			}
			res.AddRow(n, stencil.K(n), p, h, pred, h/pred, lb, eval.BetaOptimality(lb, h))
		}
	}
	res.Notes = append(res.Notes,
		"β ≈ Θ(1/4^{√log n}): the paper's stencil algorithms are efficient but not Θ(1)-optimal (an open problem, §4.4.1)")
	res.AddCheck("H stays below the Theorem 4.11 upper bound", worst <= 1,
		"max H/pred = %.4f (the bound is an O(·): ratio must not exceed 1)", worst)
	return []*Result{res}, nil
}

func runE6(cfg Config) ([]*Result, error) {
	sizes := []int{8, 16}
	if cfg.Quick {
		sizes = []int{8}
	}
	res := &Result{
		ID: "E6", Title: "(n,2)-stencil via octahedral decomposition",
		PaperRef: "Theorem 4.13",
		Columns:  []string{"n", "v=n²", "p", "H(n,p,0)", "O((n²/√p)·8^{√log n})", "H/pred", "LB Ω(n²/√p)", "β"},
	}
	worst := 0.0
	for _, n := range sizes {
		fs, err := cfg.Summary("stencil2", n)
		if err != nil {
			return nil, err
		}
		for p := 4; p <= n*n; p *= 4 {
			h := eval.H(fs, p, 0)
			pred := theory.PredictedStencil2(float64(n), p, 0)
			lb := theory.LowerBoundStencil(float64(n), 2, p, 0)
			if r := h / pred; r > worst {
				worst = r
			}
			res.AddRow(n, n*n, p, h, pred, h/pred, lb, eval.BetaOptimality(lb, h))
		}
	}
	res.Notes = append(res.Notes,
		"decomposition uses 3k-2 phases of ≤k² independent pieces (paper: 4k-3; both Θ(k), see DESIGN.md substitutions)")
	res.AddCheck("H tracks the Theorem 4.13 upper bound within a small constant", worst <= 2,
		"max H/pred = %.2f (bound 2: the boundary-overlap constant of the octahedral tiling)", worst)
	return []*Result{res}, nil
}

func runE7(cfg Config) ([]*Result, error) {
	p := 1 << 10
	if cfg.Quick {
		p = 1 << 8
	}
	res := &Result{
		ID: "E7", Title: "broadcast: aware vs oblivious across σ",
		PaperRef: "Theorems 4.15–4.16",
		Columns:  []string{"p", "σ", "κ(σ)", "H aware", "LB", "aware/LB", "H oblivious(tree)", "tree gap", "Thm4.16 curve [0,σ]"},
	}
	tree, err := cfg.Summary("broadcast-tree", p)
	if err != nil {
		return nil, err
	}
	worstAware := 0.0
	gapGrows := true
	prevGap := 0.0
	for _, sigma := range []float64{0, 2, 8, 32, 128, 512, 2048} {
		aw, err := broadcast.Aware(p, sigma, 1, broadcast.Options{Engine: cfg.engine()})
		if err != nil {
			return nil, err
		}
		hA := eval.H(aw.Trace.Summary(), p, sigma)
		hT := eval.H(tree, p, sigma)
		lb := theory.LowerBoundBroadcast(p, sigma)
		gap := hT / lb
		if hA/lb > worstAware {
			worstAware = hA / lb
		}
		if gap < prevGap {
			gapGrows = false
		}
		prevGap = gap
		res.AddRow(p, sigma, aw.Kappa, hA, lb, hA/lb, hT, gap, theory.GapLowerBound(0, sigma))
	}
	res.Notes = append(res.Notes,
		"the σ-aware κ-ary tree stays within a constant of the lower bound at every σ; the oblivious binary tree's gap grows ~log σ, as Theorem 4.16 proves is unavoidable for any network-oblivious algorithm")
	res.AddCheck("σ-aware broadcast stays within a constant of the LB", worstAware <= 3,
		"max aware/LB = %.2f (bound 3)", worstAware)
	res.AddCheck("oblivious tree gap grows with σ (Theorem 4.16)", gapGrows,
		"gap nondecreasing across the σ ladder, reaching %.2f", prevGap)
	return []*Result{res}, nil
}
