package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netoblivious/alg"
	"netoblivious/internal/colsort"
	"netoblivious/internal/core"
	"netoblivious/internal/matmul"
	"netoblivious/internal/tracetest"

	// Register the remaining built-in algorithms for the registry sweep.
	_ "netoblivious/internal/broadcast"
	_ "netoblivious/internal/fft"
	_ "netoblivious/internal/prefix"
	_ "netoblivious/internal/stencil"
)

// recomputeF derives F_i(n, p) from the raw recorded message pairs,
// independently of the runtime's incremental degree accounting.
func recomputeF(tr *tracetest.Collector, p int) []int64 {
	lp := core.Log2(p)
	shift := uint(tr.LogV - lp)
	f := make([]int64, lp)
	for si := range tr.Steps {
		rec := &tr.Steps[si]
		if rec.Label >= lp {
			continue
		}
		sent := map[int32]int64{}
		recv := map[int32]int64{}
		for src, dst := range rec.Pairs.All() {
			sb, db := src>>shift, dst>>shift
			if sb != db {
				sent[sb]++
				recv[db]++
			}
		}
		var h int64
		for _, c := range sent {
			if c > h {
				h = c
			}
		}
		for _, c := range recv {
			if c > h {
				h = c
			}
		}
		f[rec.Label] += h
	}
	return f
}

// recomputeS counts the supersteps of each label straight from the
// recorded steps, independently of the FoldSummary.
func recomputeS(tr *tracetest.Collector) []int64 {
	s := make([]int64, max(tr.LogV, 1))
	for i := range tr.Steps {
		s[tr.Steps[i].Label]++
	}
	return s
}

// TestMetricsCrossValidation: on full algorithm runs — every registry
// algorithm at its two smallest default sizes, plus matmul and sort on
// random inputs at v=256 — the FoldSummary's S and F, from which every
// metric is computed, match a recount from the raw steps and message
// pairs at every fold.
func TestMetricsCrossValidation(t *testing.T) {
	traces := map[string]*core.Trace{}
	steps := map[string]*tracetest.Collector{}
	algos := alg.All()
	if len(algos) < 10 {
		t.Fatalf("registry has %d algorithms; the paper's built-ins alone are 10", len(algos))
	}
	for _, a := range algos {
		for _, n := range a.DefaultSizes()[:2] {
			c := &tracetest.Collector{}
			res, err := a.Run(context.Background(), alg.Spec{Record: true, Sink: c}, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", a.Name, n, err)
			}
			key := fmt.Sprintf("%s/n=%d", a.Name, n)
			traces[key], steps[key] = res.Trace, c
		}
	}
	rng := rand.New(rand.NewSource(77))
	s := 16
	a := make([]int64, s*s)
	b := make([]int64, s*s)
	for i := range a {
		a[i], b[i] = int64(rng.Intn(50)), int64(rng.Intn(50))
	}
	mmSteps, stSteps := &tracetest.Collector{}, &tracetest.Collector{}
	mm, err := matmul.Multiply(s, a, b, matmul.Options{Wise: true, Record: true, Sink: mmSteps})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 256)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	st, err := colsort.Sort(keys, colsort.Options{Wise: true, Record: true, Sink: stSteps})
	if err != nil {
		t.Fatal(err)
	}
	traces["matmul/random"], traces["sort/random"] = mm.Trace, st.Trace
	steps["matmul/random"], steps["sort/random"] = mmSteps, stSteps

	for name, tr := range traces {
		fs := tr.Summary()
		if got, want := fs.S(), recomputeS(steps[name]); !slices.Equal(got, want) {
			t.Errorf("%s: S = %v, recount says %v", name, got, want)
		}
		for p := 2; p <= tr.V; p *= 2 {
			if got, want := fs.F(p), recomputeF(steps[name], p); !slices.Equal(got, want) {
				t.Errorf("%s: F(%d) = %v, brute force says %v", name, p, got, want)
			}
		}
	}
}
