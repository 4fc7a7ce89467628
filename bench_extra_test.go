package netoblivious_test

import (
	"fmt"
	"math/rand"
	"testing"

	nob "netoblivious"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/colsort"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/fft"
	"netoblivious/internal/matmul"
	"netoblivious/internal/network"
	"netoblivious/internal/theory"
)

// BenchmarkE13BitonicVsColumnsort — the sorting ablation: normalized
// per-key communication of the two network-oblivious sorts.
func BenchmarkE13BitonicVsColumnsort(b *testing.B) {
	rng := benchRng()
	n := 1 << 10
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	for _, variant := range []string{"columnsort", "bitonic"} {
		b.Run(variant, func(b *testing.B) {
			var res *colsort.Result
			var err error
			for i := 0; i < b.N; i++ {
				if variant == "bitonic" {
					res, err = colsort.SortBitonic(keys, colsort.Options{Wise: true})
				} else {
					res, err = colsort.Sort(keys, colsort.Options{Wise: true})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range []int{16, 64} {
				b.ReportMetric(nob.H(res.Trace, p, 0)*float64(p)/float64(n), fmt.Sprintf("H*p/n(p=%d)", p))
			}
		})
	}
}

// BenchmarkE14NetworkValidation — packet-level routing vs the D-BSP
// prediction h·g_i + ℓ_i.
func BenchmarkE14NetworkValidation(b *testing.B) {
	const p = 64
	cases := []struct {
		topo *network.Topology
		pr   dbsp.Params
	}{
		{network.Ring(p), dbsp.Mesh(1, p)},
		{network.Torus2D(p), dbsp.Mesh(2, p)},
		{network.Hypercube(p), dbsp.Hypercube(p)},
	}
	for _, c := range cases {
		b.Run(c.topo.Name, func(b *testing.B) {
			sim := network.NewSim(c.topo)
			rng := rand.New(rand.NewSource(1999))
			var ratio float64
			for i := 0; i < b.N; i++ {
				msgs := network.ClusterHRelation(rng, p, 2, 8)
				res := sim.Route(msgs)
				ratio = float64(res.Makespan) / (8*c.pr.G[2] + c.pr.L[2])
			}
			b.ReportMetric(ratio, "makespan/dbsp")
		})
	}
}

// BenchmarkE15RectangularMM — CARMA shapes.
func BenchmarkE15RectangularMM(b *testing.B) {
	rng := benchRng()
	shapes := [][4]int{
		{32, 32, 32, 1024},
		{256, 8, 8, 256},
		{8, 8, 256, 256},
	}
	for _, sh := range shapes {
		m, k, n, v := sh[0], sh[1], sh[2], sh[3]
		a := make([]int64, m*k)
		for i := range a {
			a[i] = int64(rng.Intn(50))
		}
		bb := make([]int64, k*n)
		for i := range bb {
			bb[i] = int64(rng.Intn(50))
		}
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			var res *matmul.RectResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = matmul.MultiplyRect(m, k, n, v, a, bb, matmul.Options{Wise: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			p := 32
			h := nob.H(res.Trace, p, 0)
			b.ReportMetric(h, "H(p=32)")
			b.ReportMetric(nob.Wiseness(res.Trace, p), "alpha")
		})
	}
}

// BenchmarkE16CacheSim — Section 6 conjecture: IC(M,B) miss counts of the
// sequential simulation of the recursive FFT trace.
func BenchmarkE16CacheSim(b *testing.B) {
	rng := benchRng()
	n := 1 << 9
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), 0)
	}
	res, err := fft.Transform(x, fft.Options{Record: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var curve []int64
	for i := 0; i < b.N; i++ {
		cs, err := cachesim.MissCurve(res.Trace.Source(), 4, 8, []int{256, 2048})
		if err != nil {
			b.Fatal(err)
		}
		curve = cs.Misses()
	}
	b.ReportMetric(float64(curve[0]), "misses(M=256)")
	b.ReportMetric(float64(curve[1]), "misses(M=2048)")
}

// BenchmarkAblationFFTSplit measures the recursive FFT against the theory
// crossover curve at several machine grains (complements E3).
func BenchmarkAblationFFTSplit(b *testing.B) {
	n := 1 << 10
	for _, p := range []int{16, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			adv := theory.PredictedIterativeFFT(float64(n), p, 0) / theory.PredictedFFT(float64(n), p, 0)
			for i := 0; i < b.N; i++ {
				_ = adv
			}
			b.ReportMetric(adv, "theory-iter/rec")
		})
	}
}
