// Benchmark harness: one testing.B target per experiment of the
// reproduction index (DESIGN.md) plus the design-choice ablations.  Each
// bench runs the corresponding workload end-to-end on the specification
// machine and reports the paper's metrics (communication complexity,
// optimality ratios, wiseness) through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every table/figure-equivalent
// series.  Absolute wall-clock times measure the simulator, not a real
// network; the reported custom metrics are the reproduction targets.
package netoblivious_test

import (
	"fmt"
	"math/rand"
	"testing"

	nob "netoblivious"
	"netoblivious/internal/broadcast"
	"netoblivious/internal/colsort"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/fft"
	"netoblivious/internal/harness"
	"netoblivious/internal/matmul"
	"netoblivious/internal/prefix"
	"netoblivious/internal/stencil"
	"netoblivious/internal/theory"
)

func benchRng() *rand.Rand { return rand.New(rand.NewSource(63)) }

// BenchmarkE1MatMulH — Theorem 4.2: H_MM(n,p,σ) = Θ(n/p^{2/3} + σ·log p).
func BenchmarkE1MatMulH(b *testing.B) {
	rng := benchRng()
	for _, s := range []int{16, 32, 64} {
		a, m := benchMatrix(rng, s), benchMatrix(rng, s)
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			var res *matmul.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = matmul.Multiply(s, a, m, matmul.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			n := float64(s * s)
			p := s * s / 8
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=n/8,σ=0)")
			b.ReportMetric(h/theory.PredictedMM(n, p, 0), "H/predicted")
			b.ReportMetric(eval.BetaOptimality(theory.LowerBoundMM(n, p, 0), h), "beta")
		})
	}
}

func benchMatrix(rng *rand.Rand, s int) []int64 {
	m := make([]int64, s*s)
	for i := range m {
		m[i] = int64(rng.Intn(100))
	}
	return m
}

// BenchmarkE2MatMulSpaceH — §4.1.1: H = Θ(n/√p + σ·√p), O(1) memory.
func BenchmarkE2MatMulSpaceH(b *testing.B) {
	rng := benchRng()
	for _, s := range []int{16, 32, 64} {
		a, m := benchMatrix(rng, s), benchMatrix(rng, s)
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			var res *matmul.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = matmul.MultiplySpaceEfficient(s, a, m, matmul.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			n := float64(s * s)
			p := s * s / 4
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=n/4,σ=0)")
			b.ReportMetric(h/theory.PredictedMMSpace(n, p, 0), "H/predicted")
			b.ReportMetric(float64(res.PeakEntries), "peak-entries")
		})
	}
}

// BenchmarkE3FFTH — Theorem 4.5 plus the iterative-baseline comparison.
func BenchmarkE3FFTH(b *testing.B) {
	rng := benchRng()
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), 0)
		}
		for _, variant := range []string{"recursive", "iterative"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, variant), func(b *testing.B) {
				var res *fft.Result
				var err error
				for i := 0; i < b.N; i++ {
					if variant == "recursive" {
						res, err = fft.Transform(x, fft.Options{Wise: true})
					} else {
						res, err = fft.TransformIterative(x, fft.Options{Wise: true})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				p := 16
				sigma := float64(n / p)
				h := nob.H(res.Trace, p, sigma)
				b.ReportMetric(h, "H(p=16,σ=n/p)")
				b.ReportMetric(h/theory.PredictedFFT(float64(n), p, sigma), "H/predictedFFT")
			})
		}
	}
}

// BenchmarkE4SortH — Theorem 4.8.
func BenchmarkE4SortH(b *testing.B) {
	rng := benchRng()
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *colsort.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = colsort.Sort(keys, colsort.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			p := 16
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=16,σ=0)")
			b.ReportMetric(h/theory.PredictedSort(float64(n), p, 0), "H/predicted")
			b.ReportMetric(eval.BetaOptimality(theory.LowerBoundSort(float64(n), p, 0), h), "beta")
		})
	}
}

// BenchmarkE5Stencil1H — Theorem 4.11.
func BenchmarkE5Stencil1H(b *testing.B) {
	rng := benchRng()
	for _, n := range []int{32, 64, 128} {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(rng.Intn(1 << 20))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *stencil.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = stencil.Run(n, 1, in, stencil.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			p := n / 4
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=n/4,σ=0)")
			b.ReportMetric(h/theory.PredictedStencil1(float64(n), p, 0), "H/predicted")
		})
	}
}

// BenchmarkE6Stencil2H — Theorem 4.13.
func BenchmarkE6Stencil2H(b *testing.B) {
	rng := benchRng()
	for _, n := range []int{8, 16} {
		in := make([]int64, n*n)
		for i := range in {
			in[i] = int64(rng.Intn(1 << 20))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *stencil.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = stencil.Run(n, 2, in, stencil.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			p := n * n / 4
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=n²/4,σ=0)")
			b.ReportMetric(h/theory.PredictedStencil2(float64(n), p, 0), "H/predicted")
		})
	}
}

// BenchmarkE7BroadcastGap — Theorems 4.15–4.16.
func BenchmarkE7BroadcastGap(b *testing.B) {
	const p = 1 << 10
	for _, sigma := range []float64{0, 32, 1024} {
		b.Run(fmt.Sprintf("sigma=%g", sigma), func(b *testing.B) {
			var aw, tree *broadcast.Result
			var err error
			for i := 0; i < b.N; i++ {
				aw, err = broadcast.Aware(p, sigma, 1, broadcast.Options{})
				if err != nil {
					b.Fatal(err)
				}
				tree, err = broadcast.Oblivious(p, 1, broadcast.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			lb := theory.LowerBoundBroadcast(p, sigma)
			b.ReportMetric(nob.H(aw.Trace, p, sigma)/lb, "aware/LB")
			b.ReportMetric(nob.H(tree.Trace, p, sigma)/lb, "oblivious/LB")
			b.ReportMetric(theory.GapLowerBound(0, sigma), "thm4.16-curve")
		})
	}
}

// BenchmarkE8DBSPTransfer — Theorem 3.4: communication time vs the D-BSP
// bandwidth lower bound across network families.
func BenchmarkE8DBSPTransfer(b *testing.B) {
	rng := benchRng()
	s := 32
	a, m := benchMatrix(rng, s), benchMatrix(rng, s)
	for _, mk := range []func(int) dbsp.Params{
		func(p int) dbsp.Params { return dbsp.Mesh(1, p) },
		func(p int) dbsp.Params { return dbsp.Mesh(2, p) },
		dbsp.Hypercube,
		dbsp.FatTree,
	} {
		pr := mk(64)
		b.Run(pr.Name, func(b *testing.B) {
			var res *matmul.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = matmul.Multiply(s, a, m, matmul.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			d := nob.CommTime(res.Trace, pr)
			b.ReportMetric(d, "D(n,64,g,l)")
			b.ReportMetric(nob.Wiseness(res.Trace, 64), "alpha")
		})
	}
}

// BenchmarkE9Wiseness — Definition 3.2, with and without dummy messages.
func BenchmarkE9Wiseness(b *testing.B) {
	rng := benchRng()
	n := 1 << 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	for _, wise := range []bool{true, false} {
		b.Run(fmt.Sprintf("dummies=%v", wise), func(b *testing.B) {
			var res *fft.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = fft.Transform(x, fft.Options{Wise: wise})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(nob.Wiseness(res.Trace, 16), "alpha(p=16)")
			b.ReportMetric(nob.Wiseness(res.Trace, n), "alpha(p=n)")
		})
	}
}

// BenchmarkE10FoldingLemma — Lemma 3.1 checked across every fold of a
// full-size trace.
func BenchmarkE10FoldingLemma(b *testing.B) {
	rng := benchRng()
	n := 1 << 10
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	res, err := colsort.Sort(keys, colsort.Options{Wise: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := res.Trace.Summary()
		if err != nil {
			b.Fatal(err)
		}
		for p := 2; p <= n; p *= 2 {
			if err := eval.CheckFoldingLemma(fs, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(0, "violations")
}

// BenchmarkE11AscendDescend — Section 5: the protocol's improvement on the
// unbalanced-pair workload over direct execution.
func BenchmarkE11AscendDescend(b *testing.B) {
	const v = 64
	const msgs = 4096
	tr, err := core.RunOpt(v, func(vp *core.VP[int]) {
		if vp.ID() == 0 {
			for k := 0; k < msgs; k++ {
				vp.Send(v/2, k)
			}
		}
		vp.Sync(0)
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		b.Fatal(err)
	}
	pr := dbsp.Mesh(1, v)
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		pc, err := dbsp.AscendDescend(tr, v)
		if err != nil {
			b.Fatal(err)
		}
		speedup = nob.CommTime(tr, pr) / pc.CommTime(pr)
	}
	b.ReportMetric(speedup, "speedup-mesh1D")
	b.ReportMetric(nob.Fullness(tr, v), "gamma")
}

// BenchmarkE12CommTimeTables — Equation 2 on the full network suite.
func BenchmarkE12CommTimeTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := runExperiment("E12"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1DiamondDecomposition — Figure 1 structure.
func BenchmarkF1DiamondDecomposition(b *testing.B) {
	var tiles []stencil.Tile
	for i := 0; i < b.N; i++ {
		tiles = stencil.Decompose(256)
	}
	phases := map[int]bool{}
	for _, t := range tiles {
		phases[t.Phase] = true
	}
	b.ReportMetric(float64(len(tiles)), "diamonds")
	b.ReportMetric(float64(len(phases)), "stripes")
}

func runExperiment(id string) ([]*harness.Result, error) {
	e, ok := harness.ByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %s", id)
	}
	return e.Run(harness.Config{Quick: true})
}

// BenchmarkHarnessSuite drives the declarative experiment pipeline end to
// end off its structured results: the full quick suite through the
// bounded worker pool, sequentially and at GOMAXPROCS, reporting the
// trace-store hit rate and the count of failed checks (must stay 0).
// This is the headline series for the shared-trace-store refactor: the
// hit rate measures how many specification-model executions the store
// eliminates across E1–F1.
func BenchmarkHarnessSuite(b *testing.B) {
	for _, parallel := range []int{1, 0} {
		name := "sequential"
		if parallel == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			var stats core.StoreStats
			failures := 0
			for i := 0; i < b.N; i++ {
				store := harness.NewTraceStore()
				recs, err := harness.RunSuite(harness.Config{Quick: true, Parallel: parallel, Store: store}, nil)
				if err != nil {
					b.Fatal(err)
				}
				failures = 0 // per-suite, not accumulated across b.N
				for _, rec := range recs {
					if !rec.Passed() {
						failures++
					}
				}
				stats = store.Stats()
			}
			b.ReportMetric(float64(failures), "failed-experiments")
			b.ReportMetric(stats.HitRate(), "store-hit-rate")
			b.ReportMetric(float64(stats.Hits), "store-hits")
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) -----------

// BenchmarkAblationSortShape compares Columnsort matrix shapes: the
// library's r ≥ 2(s−1)² choice vs a taller, safer r = n/2 (s = 2).
func BenchmarkAblationSortShape(b *testing.B) {
	rng := benchRng()
	n := 1 << 10
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	// The shape is chosen internally; the ablation contrasts base sizes,
	// which steer how quickly recursion bottoms out.
	for _, base := range []int{8, 16, 64} {
		b.Run(fmt.Sprintf("base=%d", base), func(b *testing.B) {
			var res *colsort.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = colsort.SortBase(keys, base, colsort.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(nob.H(res.Trace, 16, 0), "H(p=16)")
			b.ReportMetric(float64(res.Trace.NumSupersteps()), "supersteps")
		})
	}
}

// BenchmarkAblationStencilK varies the stencil recursion degree against
// the paper's k = 2^⌈√log n⌉.
func BenchmarkAblationStencilK(b *testing.B) {
	rng := benchRng()
	n := 64
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(rng.Intn(1 << 20))
	}
	for _, k := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var res *stencil.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = stencil.RunK(n, 1, k, in, stencil.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(nob.H(res.Trace, 16, 0), "H(p=16)")
			b.ReportMetric(float64(res.Trace.NumSupersteps()), "supersteps")
		})
	}
}

// BenchmarkAblationPrefix contrasts the work-efficient tree scan with
// Hillis–Steele doubling.
func BenchmarkAblationPrefix(b *testing.B) {
	rng := benchRng()
	n := 1 << 10
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(1000))
	}
	for _, variant := range []string{"tree", "doubling"} {
		b.Run(variant, func(b *testing.B) {
			var res *prefix.Result
			var err error
			for i := 0; i < b.N; i++ {
				if variant == "tree" {
					res, err = prefix.ScanTree(xs, prefix.Sum(), prefix.Options{})
				} else {
					res, err = prefix.Scan(xs, prefix.Sum(), prefix.Options{})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Trace.TotalMessages()), "messages")
			b.ReportMetric(nob.H(res.Trace, 16, 1), "H(p=16,σ=1)")
		})
	}
}

// benchEngineWorkload runs a fixed superstep mix — exchanges at a deep
// label, a mid label and the global label, as real algorithms do — on the
// given engine and machine size.
func benchEngineWorkload(b *testing.B, eng nob.Engine, v int) {
	logV := core.Log2(v)
	labels := []int{logV - 1, 2, 0}
	if v < 8 {
		labels = []int{0}
	}
	for i := 0; i < b.N; i++ {
		_, err := core.RunOpt(v, func(vp *core.VP[int64]) {
			var acc int64
			for _, lab := range labels {
				partner := vp.ID() ^ (v >> uint(lab+1))
				vp.Send(partner, int64(vp.ID())+acc)
				vp.Sync(lab)
				if m, ok := vp.Receive(); ok {
					acc += m
				}
			}
			vp.Sync(0)
		}, core.Options{Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(labels)+1), "supersteps")
}

// benchEngines are the engines BenchmarkRun compares: the reference and
// the production engine.
var benchEngines = []nob.Engine{nob.GoroutineEngine{}, nob.BlockEngine{}}

// BenchmarkRun compares the execution engines on the superstep workload
// across machine sizes: the headline series for the block-scheduled
// runtime.  BenchmarkRunLarge extends it to v = 2^16 and 2^18.
func BenchmarkRun(b *testing.B) {
	for _, eng := range benchEngines {
		for _, lv := range []int{10, 12, 14} {
			v := 1 << uint(lv)
			b.Run(fmt.Sprintf("engine=%s/v=%d", eng.Name(), v), func(b *testing.B) {
				benchEngineWorkload(b, eng, v)
			})
		}
	}
}

// BenchmarkRunLarge is the large-machine tail of BenchmarkRun, split out
// so quick smoke runs can match '^BenchmarkRun$' and skip it.
func BenchmarkRunLarge(b *testing.B) {
	for _, eng := range benchEngines {
		for _, lv := range []int{16, 18} {
			v := 1 << uint(lv)
			b.Run(fmt.Sprintf("engine=%s/v=%d", eng.Name(), v), func(b *testing.B) {
				benchEngineWorkload(b, eng, v)
			})
		}
	}
}

// BenchmarkCoreBarrier measures the raw superstep engine: v VPs crossing
// one barrier per superstep.
func BenchmarkCoreBarrier(b *testing.B) {
	for _, v := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			steps := 16
			for i := 0; i < b.N; i++ {
				_, err := core.Run(v, func(vp *core.VP[struct{}]) {
					for s := 0; s < steps; s++ {
						vp.Sync(0)
					}
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(steps), "supersteps")
		})
	}
}
