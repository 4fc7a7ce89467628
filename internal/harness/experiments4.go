package harness

import (
	"math"

	"netoblivious/internal/eval"
	"netoblivious/internal/matmul"
)

func init() {
	register(Experiment{
		ID:       "E15",
		Title:    "rectangular matrix multiplication (CARMA recursion) across shapes",
		PaperRef: "Section 6 (follow-up work: Demmel et al., IPDPS 2013)",
		Run:      runE15,
	})
}

func runE15(cfg Config) ([]*Result, error) {
	rng := seededRng()
	res := &Result{
		ID: "E15", Title: "split-largest-dimension recursion: H across operand shapes",
		PaperRef: "Demmel et al. 2013, built on the network-oblivious framework",
		Columns:  []string{"m×k×n", "v", "p", "H(n,p,0)", "(mkn/p)^{2/3}+(mk+kn+mn)/p", "H/pred", "α"},
	}
	shapes := [][4]int{
		{32, 32, 32, 1024}, // square
		{256, 8, 8, 256},   // tall
		{8, 256, 8, 256},   // inner-heavy
		{8, 8, 256, 256},   // wide
		{128, 128, 2, 512}, // panel
	}
	if cfg.Quick {
		shapes = [][4]int{{16, 16, 16, 256}, {64, 4, 4, 64}}
	}
	worst, minAlpha := 0.0, 1.0
	for _, sh := range shapes {
		m, k, n, v := sh[0], sh[1], sh[2], sh[3]
		a := make([]int64, m*k)
		for i := range a {
			a[i] = int64(rng.Intn(50))
		}
		b := make([]int64, k*n)
		for i := range b {
			b[i] = int64(rng.Intn(50))
		}
		r, err := matmul.MultiplyRect(m, k, n, v, a, b, matmul.Options{Wise: true, Engine: cfg.engine()})
		if err != nil {
			return nil, err
		}
		fs, err := r.Trace.Summary()
		if err != nil {
			return nil, err
		}
		for p := 4; p <= v; p *= 8 {
			h := eval.H(fs, p, 0)
			pred := math.Pow(float64(m)*float64(k)*float64(n)/float64(p), 2.0/3.0) +
				float64(m*k+k*n+m*n)/float64(p)
			alpha := eval.Wiseness(fs, p)
			if h/pred > worst {
				worst = h / pred
			}
			if alpha < minAlpha {
				minAlpha = alpha
			}
			res.AddRow(fmtShape(m, k, n), v, p, h, pred, h/pred, alpha)
		}
	}
	res.Notes = append(res.Notes,
		"the communication bound of rectangular MM has two regimes — the 3D term (mkn/p)^{2/3} for cube-like shapes and the input term (mk+kn+mn)/p for flat ones; the split-largest-dimension rule tracks both, which square-only 8-way recursion cannot",
		"on square shapes the recursion reproduces Theorem 4.2's Θ(n/p^{2/3}) (n = matrix entries)")
	res.AddCheck("H tracks the two-regime CARMA bound within a constant factor", worst <= 20,
		"max H/pred = %.2f (bound 20)", worst)
	res.AddCheck("the recursion stays wise across shapes", minAlpha >= 0.5,
		"min α = %.4f (bound 0.5)", minAlpha)
	return []*Result{res}, nil
}

func fmtShape(m, k, n int) string {
	return itoa(m) + "×" + itoa(k) + "×" + itoa(n)
}

func itoa(x int) string {
	if x == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}
