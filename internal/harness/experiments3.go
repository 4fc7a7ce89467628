package harness

import (
	"math"
	"math/rand"

	"netoblivious/internal/eval"
	"netoblivious/internal/network"
	"netoblivious/internal/theory"
)

func init() {
	register(Experiment{
		ID:       "E13",
		Title:    "sorting ablation: Columnsort vs Batcher's bitonic network",
		PaperRef: "Theorem 4.8 (optimality) vs the classic Θ(log²p)-suboptimal baseline",
		Run:      runE13,
	})
	register(Experiment{
		ID:       "E14",
		Title:    "D-BSP validity: packet-level routing vs h·g_i + ℓ_i on real networks",
		PaperRef: "Section 2 (execution model), Bilardi et al. 1999",
		Run:      runE14,
	})
}

func runE13(cfg Config) ([]*Result, error) {
	sizes := []int{1 << 8, 1 << 10, 1 << 12}
	if cfg.Quick {
		sizes = []int{1 << 8, 1 << 10}
	}
	res := &Result{
		ID: "E13", Title: "normalized per-key communication H·p/n at σ=0",
		PaperRef: "Theorem 4.8",
		Columns:  []string{"n", "p", "Columnsort H·p/n", "bitonic H·p/n", "bitonic shape log p(log p+1)", "col/bit"},
	}
	bitonicExact := true
	colTrendDown := true
	prevLargestP := math.Inf(1)
	for _, n := range sizes {
		col, err := cfg.Summary("sort", n)
		if err != nil {
			return nil, err
		}
		bit, err := cfg.Summary("bitonic", n)
		if err != nil {
			return nil, err
		}
		for _, p := range []int{4, 16, 64} {
			hc := eval.H(col, p, 0) * float64(p) / float64(n)
			hb := eval.H(bit, p, 0) * float64(p) / float64(n)
			shape := theory.PredictedBitonic(float64(n), p, 0) * 2 * float64(p) / float64(n)
			if math.Abs(hb-shape) > 1e-9 {
				bitonicExact = false
			}
			if p == 64 {
				if hc/hb > prevLargestP {
					colTrendDown = false
				}
				prevLargestP = hc / hb
			}
			res.AddRow(n, p, hc, hb, shape, hc/hb)
		}
	}
	res.Notes = append(res.Notes,
		"bitonic's normalized cost is exactly log p(log p+1), independent of n — the Θ(log²p) suboptimality factor made visible",
		"Columnsort's normalized cost falls with n toward a constant (Theorem 4.8's Θ(1)-optimality for p = O(n^{1-δ})); at simulable sizes bitonic's small constants still win in absolute terms — the paper's claim is asymptotic and the trend confirms it")
	res.AddCheck("bitonic normalized cost equals its closed form", bitonicExact,
		"H·p/n = log p(log p+1) at every grid point")
	res.AddCheck("Columnsort's relative cost falls with n (asymptotic optimality trend)", colTrendDown,
		"col/bit nonincreasing in n at p=64, ending at %.2f", prevLargestP)
	return []*Result{res}, nil
}

func runE14(cfg Config) ([]*Result, error) {
	rng := rand.New(rand.NewSource(1999)) // Euro-Par 1999
	p := 64
	if cfg.Quick {
		p = 16
	}
	res := &Result{
		ID: "E14", Title: "routing cluster-confined h-relations on real networks",
		PaperRef: "Section 2; Bilardi–Pietracaprina–Pucci 1999; Valiant 1982",
		Columns:  []string{"network", "strategy", "cluster level i", "h", "measured makespan", "D-BSP h·g_i+ℓ_i", "ratio"},
	}
	levels := []int{0, 2, 4}
	if cfg.Quick {
		levels = []int{0, 2}
	}
	worstDirect, worstValiant := 0.0, 0.0
	lost := false
	for _, family := range network.TopologyNames() {
		if !network.TopologyValid(family, p) {
			continue // e.g. torus3d at the non-cubic quick size
		}
		topo, err := network.TopologyByName(family, p)
		if err != nil {
			return nil, err
		}
		pr, err := DBSPCounterpart(family, p)
		if err != nil {
			return nil, err
		}
		sim := network.NewSim(topo)
		for _, level := range levels {
			for _, h := range []int{1, 4, 16} {
				// One relation per grid cell, routed under every
				// strategy: the shortest-path and valiant rows of a cell
				// compare the same traffic, not two random draws.
				msgs := network.ClusterHRelation(rng, p, level, h)
				for _, strategy := range network.RouterNames() {
					router, err := network.RouterByName(strategy, 1999)
					if err != nil {
						return nil, err
					}
					r := sim.RouteWith(router, msgs)
					if r.Delivered != len(msgs) {
						lost = true
					}
					pred := float64(h)*pr.G[level] + pr.L[level]
					ratio := float64(r.Makespan) / pred
					if strategy == network.StrategyValiant {
						if ratio > worstValiant {
							worstValiant = ratio
						}
					} else if ratio > worstDirect {
						worstDirect = ratio
					}
					res.AddRow(topo.Name, strategy, level, h, r.Makespan, pred, ratio)
				}
			}
		}
	}
	res.Notes = append(res.Notes,
		"bounded ratios across topologies, cluster levels and degrees justify using D-BSP as the execution machine model — the premise the paper takes from Bilardi et al. [1999], rebuilt here with a synchronous store-and-forward simulator",
		"ratios below 1 reflect that random h-relations do not saturate the bisection; the D-BSP vectors are worst-case",
		"valiant is two-phase oblivious routing through a random cluster-aligned intermediate: it pays about twice the distance to make congestion pattern-independent, so its ratios sit a constant factor above shortest-path")
	res.AddCheck("every routed relation delivered in full", !lost, "all strategies, all grid points")
	res.AddCheck("shortest-path makespan never exceeds the D-BSP cost by more than 50%", worstDirect <= 1.5,
		"max makespan/(h·g_i+ℓ_i) = %.2f (bound 1.5)", worstDirect)
	res.AddCheck("valiant two-phase makespan stays within 3x of the D-BSP cost", worstValiant <= 3,
		"max makespan/(h·g_i+ℓ_i) = %.2f (bound 3)", worstValiant)
	return []*Result{res}, nil
}
