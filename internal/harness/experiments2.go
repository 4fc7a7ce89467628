package harness

import (
	"fmt"
	"strings"

	"netoblivious/alg"
	"netoblivious/internal/colsort"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/fft"
	"netoblivious/internal/matmul"
	"netoblivious/internal/randalg"
	"netoblivious/internal/stencil"
	"netoblivious/internal/theory"
)

func init() {
	register(Experiment{
		ID:       "E8",
		Title:    "optimality transfer to D-BSP machines (Theorem 3.4)",
		PaperRef: "Theorem 3.4, Corollaries 4.3/4.6/4.9",
		Run:      runE8,
	})
	register(Experiment{
		ID:       "E9",
		Title:    "wiseness α (Definition 3.2) of every algorithm, with/without dummies",
		PaperRef: "Definition 3.2",
		Run:      runE9,
	})
	register(Experiment{
		ID:       "E10",
		Title:    "folding inequality of Lemma 3.1 on random and real traces",
		PaperRef: "Lemma 3.1",
		Run:      runE10,
	})
	register(Experiment{
		ID:       "E11",
		Title:    "ascend–descend protocol rescues non-wise algorithms (Section 5)",
		PaperRef: "Lemma 5.1, Theorem 5.3",
		Run:      runE11,
	})
	register(Experiment{
		ID:       "E12",
		Title:    "communication time D(n,p,g,ℓ) of every algorithm on every network preset",
		PaperRef: "Equation 2, Corollaries 4.3–4.14",
		Run:      runE12,
	})
	register(Experiment{
		ID:       "F1",
		Title:    "diamond-DAG decomposition (Figure 1)",
		PaperRef: "Figure 1, Section 4.4.1",
		Run:      runF1,
	})
}

// suiteSize returns the standard trace-store size of an algorithm in the
// E8–E12 cross-algorithm suite.
func (c Config) suiteSize(name string) int {
	switch name {
	case "matmul", "matmul-space":
		if c.Quick {
			return 256 // 16×16
		}
		return 1024 // 32×32
	case "stencil1":
		if c.Quick {
			return 32
		}
		return 64
	default: // fft, fft-iterative, sort
		if c.Quick {
			return 1 << 8
		}
		return 1 << 10
	}
}

// suiteSummary summarizes one cross-algorithm suite trace from the store.
func (c Config) suiteSummary(name string) (*core.FoldSummary, error) {
	return c.Summary(name, c.suiteSize(name))
}

// lbAt returns the σ=0 message lower bound of an algorithm at fold p.
func lbAt(name string, v, p int) float64 {
	switch {
	case strings.HasPrefix(name, "matmul-space"):
		return theory.LowerBoundMMSpace(float64(v), p, 0)
	case strings.HasPrefix(name, "matmul"):
		return theory.LowerBoundMM(float64(v), p, 0)
	case strings.HasPrefix(name, "fft"):
		return theory.LowerBoundFFT(float64(v), p, 0)
	case name == "sort":
		return theory.LowerBoundSort(float64(v), p, 0)
	case name == "stencil1":
		return theory.LowerBoundStencil(float64(v), 1, p, 0)
	}
	return 0
}

// dbspLowerBound transports the evaluation-model message lower bound to a
// D-BSP machine: the algorithm folded on 2^j processors must exchange
// LB(2^j) messages, each crossing a level-(j−1) cluster boundary and thus
// costing at least g_{j-1}; per level the time is at least LB(2^j)/2^j...
// conservatively we take max_j g_{j-1}·LB(2^j)·2^j/p ... the per-processor
// load at fold 2^j scaled to p processors.  This is the standard D-BSP
// bandwidth argument (Bilardi et al. 2007a) with unit constants.
func dbspLowerBound(name string, v int, pr dbsp.Params) float64 {
	best := 0.0
	for j := 1; j <= pr.LogP(); j++ {
		lb := lbAt(name, v, 1<<uint(j))
		if t := lb * pr.G[j-1] * float64(int64(1)<<uint(j)) / float64(pr.P); t > best {
			best = t
		}
	}
	return best
}

func runE8(cfg Config) ([]*Result, error) {
	p := 64
	if cfg.Quick {
		p = 16
	}
	res := &Result{
		ID: "E8", Title: "communication time vs D-BSP bandwidth lower bound",
		PaperRef: "Theorem 3.4",
		Columns:  []string{"algorithm", "machine", "α(p)", "D(n,p,g,ℓ)", "D lower bound", "D/LB", "transfer β' = αβ/(1+α)"},
	}
	worst := 0.0
	for _, name := range []string{"matmul", "fft", "sort", "stencil1"} {
		fs, err := cfg.suiteSummary(name)
		if err != nil {
			return nil, err
		}
		for _, pr := range dbsp.Presets(p) {
			if err := pr.Admissible(); err != nil {
				return nil, err
			}
			alpha := eval.Wiseness(fs, p)
			d := dbsp.CommTimeSummary(fs, pr)
			lb := dbspLowerBound(name, fs.V(), pr)
			beta := eval.BetaOptimality(lbAt(name, fs.V(), p), eval.H(fs, p, 0))
			if d/lb > worst {
				worst = d / lb
			}
			res.AddRow(name, pr.Name, alpha, d, lb, d/lb, theory.BetaPrime(alpha, beta))
		}
	}
	res.Notes = append(res.Notes,
		"D/LB bounded across machine families = the optimality-transfer promise of Theorem 3.4 observed on mesh/hypercube/fat-tree parameter vectors",
		"β' is the factor Theorem 3.4 guarantees from the measured wiseness α and evaluation-model optimality β")
	res.AddCheck("communication time bounded vs the D-BSP bandwidth LB", worst > 0 && worst <= 200,
		"max D/LB = %.2f (bound 200; the loosest case is the non-Θ(1)-optimal stencil on mesh-1D)", worst)
	return []*Result{res}, nil
}

func runE9(cfg Config) ([]*Result, error) {
	res := &Result{
		ID: "E9", Title: "measured wiseness α(p)",
		PaperRef: "Definition 3.2",
		Columns:  []string{"algorithm", "p", "α with dummies", "α without dummies"},
	}
	// Wise runs come from the shared store; the dummy-free variants are
	// the experiment's own ablation and run directly.
	rng := seededRng()
	s := 16
	n := 1 << 8
	a, b := randMatrix(rng, s), randMatrix(rng, s)
	keys := randKeys(rng, n)
	x := randComplex(rng, n)
	type variant struct {
		name  string
		plain func() (*core.FoldSummary, error)
	}
	variants := []variant{
		{"matmul", func() (*core.FoldSummary, error) {
			r, err := matmul.Multiply(s, a, b, matmul.Options{Wise: false, Engine: cfg.engine()})
			if err != nil {
				return nil, err
			}
			return r.Trace.Summary()
		}},
		{"fft", func() (*core.FoldSummary, error) {
			r, err := fft.Transform(x, fft.Options{Wise: false, Engine: cfg.engine()})
			if err != nil {
				return nil, err
			}
			return r.Trace.Summary()
		}},
		{"sort", func() (*core.FoldSummary, error) {
			r, err := colsort.Sort(keys, colsort.Options{Wise: false, Engine: cfg.engine()})
			if err != nil {
				return nil, err
			}
			return r.Trace.Summary()
		}},
	}
	dummiesWin := true
	for _, vr := range variants {
		wise, err := cfg.Summary(vr.name, n)
		if err != nil {
			return nil, err
		}
		plain, err := vr.plain()
		if err != nil {
			return nil, err
		}
		for _, p := range []int{4, 16, wise.V()} {
			aw, ap := eval.Wiseness(wise, p), eval.Wiseness(plain, p)
			if aw < ap {
				dummiesWin = false
			}
			res.AddRow(vr.name, p, aw, ap)
		}
	}
	// The Section 5 counterexample: a single unbalanced pair.
	ub, err := core.RunOpt(1<<8, func(vp *core.VP[int]) {
		if vp.ID() == 0 {
			for k := 0; k < 1<<8; k++ {
				vp.Send(1<<7, k)
			}
		}
		vp.Sync(0)
		vp.Sync(0)
	}, cfg.runOpts(false))
	if err != nil {
		return nil, err
	}
	ubfs, err := ub.Summary()
	if err != nil {
		return nil, err
	}
	unbalancedExact := true
	for _, p := range []int{4, 16, 256} {
		alpha := eval.Wiseness(ubfs, p)
		if alpha != 2/float64(p) {
			unbalancedExact = false
		}
		res.AddRow("unbalanced-pair", p, alpha, alpha)
	}
	res.Notes = append(res.Notes,
		"the paper's dummy-message trick keeps α = Θ(1); the unbalanced pair has α = 2/p, the motivating example of Section 5")
	res.AddCheck("dummy messages never reduce wiseness", dummiesWin,
		"α(wise) ≥ α(plain) at every (algorithm, p)")
	res.AddCheck("unbalanced pair measures α = 2/p exactly", unbalancedExact,
		"the Section 5 counterexample's wiseness is the closed form 2/p")
	return []*Result{res}, nil
}

func runE10(cfg Config) ([]*Result, error) {
	res := &Result{
		ID: "E10", Title: "Lemma 3.1 folding inequality",
		PaperRef: "Lemma 3.1",
		Columns:  []string{"trace", "folds checked", "violations", "max LHS/RHS"},
	}
	totalViol := 0
	worstAll := 0.0
	check := func(name string, fs *core.FoldSummary) {
		checked, viol := 0, 0
		worst := 0.0
		for p := 2; p <= fs.V(); p *= 2 {
			fp := fs.F(p)
			for j := 1; j <= core.Log2(p); j++ {
				fj := fs.F(1 << uint(j))
				var lhs, rhs int64
				for i := 0; i < j; i++ {
					lhs += fj[i]
					rhs += fp[i]
				}
				checked++
				scaled := float64(rhs) * float64(p>>uint(j))
				if scaled > 0 {
					if r := float64(lhs) / scaled; r > worst {
						worst = r
					}
					if float64(lhs) > scaled {
						viol++
					}
				}
			}
		}
		totalViol += viol
		if worst > worstAll {
			worstAll = worst
		}
		res.AddRow(name, checked, viol, worst)
	}
	for _, name := range []string{"matmul", "matmul-space", "fft", "fft-iterative", "sort", "stencil1"} {
		fs, err := cfg.suiteSummary(name)
		if err != nil {
			return nil, err
		}
		check(name, fs)
	}
	rng := seededRng()
	for trial := 0; trial < 5; trial++ {
		spec := randalg.Random(rng, 32, 6, 3)
		tr, err := spec.RunSpec(alg.Spec{Engine: cfg.engine(), Ctx: cfg.Context})
		if err != nil {
			return nil, err
		}
		fs, err := tr.Summary()
		if err != nil {
			return nil, err
		}
		check(fmt.Sprintf("random-%d", trial), fs)
	}
	res.Notes = append(res.Notes,
		"zero violations expected: the lemma holds per-superstep for every static algorithm; max ratio 1 means the bound is tight (achieved by perfectly wise patterns)")
	res.AddCheck("Lemma 3.1 holds on every fold of every trace", totalViol == 0,
		"%d violations across real and random traces", totalViol)
	res.AddCheck("the folding bound is never exceeded (ratio ≤ 1)", worstAll <= 1,
		"max LHS/RHS = %.4f", worstAll)
	return []*Result{res}, nil
}

func runE11(cfg Config) ([]*Result, error) {
	v := 1 << 6
	msgs := 1 << 12
	if cfg.Quick {
		v, msgs = 1<<5, 1<<10
	}
	tr, err := core.RunOpt(v, func(vp *core.VP[int]) {
		if vp.ID() == 0 {
			for k := 0; k < msgs; k++ {
				vp.Send(v/2, k)
			}
		}
		vp.Sync(0)
		vp.Sync(0)
	}, cfg.runOpts(true))
	if err != nil {
		return nil, err
	}
	fs, err := tr.Summary()
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID: "E11", Title: "ascend–descend execution of the unbalanced-pair workload",
		PaperRef: "Section 5, Lemma 5.1, Theorem 5.3",
		Columns:  []string{"machine", "α(p)", "γ(p)", "D standard", "D ascend–descend", "speedup"},
	}
	p := v
	allFaster := true
	for _, pr := range []dbsp.Params{dbsp.Mesh(1, p), dbsp.Mesh(2, p), dbsp.FatTree(p)} {
		std := dbsp.CommTimeSummary(fs, pr)
		pc, err := dbsp.AscendDescend(tr, p)
		if err != nil {
			return nil, err
		}
		reb := pc.CommTime(pr)
		if std/reb <= 1 {
			allFaster = false
		}
		pt := eval.MeasureSummary(fs, p, 0)
		res.AddRow(pr.Name, pt.Alpha, pt.Gamma, std, reb, std/reb)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("workload: VP0 sends %d messages to VP%d in one 0-superstep (α = 2/p, γ = Θ(messages/p))", msgs, v/2),
		"the protocol spreads the burst across clusters, paying Lemma 5.1's O(log p) supersteps per level but trading n·g_0 for ~(n/p)·Σ g_k — the Theorem 5.3 mechanism")
	res.AddCheck("ascend–descend beats direct execution on every machine", allFaster,
		"speedup > 1 on mesh-1D, mesh-2D and fat-tree")
	return []*Result{res}, nil
}

func runE12(cfg Config) ([]*Result, error) {
	p := 64
	if cfg.Quick {
		p = 16
	}
	res := &Result{
		ID: "E12", Title: fmt.Sprintf("communication time D(n,p,g,ℓ) at p=%d", p),
		PaperRef: "Equation 2",
		Columns:  []string{"algorithm", "v(n)"},
	}
	presets := dbsp.Presets(p)
	for _, pr := range presets {
		res.Columns = append(res.Columns, pr.Name)
	}
	allPositive := true
	mesh1Worst := true
	for _, name := range []string{"matmul", "matmul-space", "fft", "fft-iterative", "sort", "stencil1"} {
		fs, err := cfg.suiteSummary(name)
		if err != nil {
			return nil, err
		}
		row := []any{name, fs.V()}
		rowMax, mesh1 := 0.0, 0.0
		for _, pr := range presets {
			d := dbsp.CommTimeSummary(fs, pr)
			if d <= 0 {
				allPositive = false
			}
			if d > rowMax {
				rowMax = d
			}
			if strings.HasPrefix(pr.Name, "mesh-1D") {
				mesh1 = d
			}
			row = append(row, d)
		}
		if mesh1 < rowMax {
			mesh1Worst = false
		}
		res.AddRow(row...)
	}
	res.Notes = append(res.Notes,
		"the same folded trace is costed on every machine: network-obliviousness means the algorithm text never changes, only the (g, ℓ) vectors do")
	res.AddCheck("every (algorithm, machine) pair has positive communication time", allPositive, "D > 0 across the grid")
	res.AddCheck("the bandwidth-poorest network (mesh-1D) is the most expensive", mesh1Worst,
		"mesh-1D attains the row maximum for every algorithm")
	return []*Result{res}, nil
}

func runF1(cfg Config) ([]*Result, error) {
	n := 64
	if cfg.Quick {
		n = 32
	}
	tiles := stencil.Decompose(n)
	k := stencil.K(n)
	byPhase := map[int]int{}
	nodes := 0
	for _, t := range tiles {
		byPhase[t.Phase]++
		nodes += t.Nodes
	}
	res := &Result{
		ID: "F1", Title: fmt.Sprintf("diamond decomposition of the (%d,1)-stencil (k=%d)", n, k),
		PaperRef: "Figure 1",
		Columns:  []string{"phase (stripe)", "diamonds", "≤ k?"},
	}
	withinK := true
	for phase := 0; phase <= 2*k-2; phase++ {
		cnt := byPhase[phase]
		if cnt == 0 {
			continue
		}
		ok := "yes"
		if cnt > k {
			ok = "NO"
			withinK = false
		}
		res.AddRow(phase, cnt, ok)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d non-empty diamonds over %d phases cover all %d DAG nodes (stripes of Figure 1)", len(tiles), len(byPhase), nodes),
		"rendering (phases as glyphs, t grows upward):",
	)
	for _, line := range strings.Split(strings.TrimRight(stencil.RenderDecomposition(min(n, 32)), "\n"), "\n") {
		res.Notes = append(res.Notes, line)
	}
	res.AddCheck("every stripe holds at most k diamonds", withinK,
		"phase-parallelism bound of the Figure 1 decomposition (k=%d)", k)
	res.AddCheck("the decomposition covers the full DAG", nodes == n*n,
		"%d nodes covered of %d", nodes, n*n)
	return []*Result{res}, nil
}
