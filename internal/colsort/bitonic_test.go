package colsort

import (
	"math/rand"
	"sort"
	"testing"

	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
	"netoblivious/internal/tracetest"
)

// TestBitonicCorrectness: bitonic output matches sort.Slice on assorted
// inputs.
func TestBitonicCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		for trial := 0; trial < 4; trial++ {
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(rng.Intn(200) - 100)
			}
			res, err := SortBitonic(in, Options{Wise: true})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			want := append([]int64(nil), in...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if res.Keys[i] != want[i] {
					t.Fatalf("n=%d trial %d: Keys[%d] = %d, want %d", n, trial, i, res.Keys[i], want[i])
				}
			}
		}
	}
}

// TestBitonicZeroOne: 0-1 principle sampling (the network is oblivious, so
// 0-1 coverage is strong evidence).
func TestBitonicZeroOne(t *testing.T) {
	n := 16
	for mask := 0; mask < 1<<uint(n); mask += 7 { // stride-sampled masks
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(mask >> uint(i) & 1)
		}
		res, err := SortBitonic(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(res.Keys, func(i, j int) bool { return res.Keys[i] < res.Keys[j] }) {
			t.Fatalf("mask %b: not sorted: %v", mask, res.Keys)
		}
	}
}

// TestBitonicStageCount: exactly log n (log n + 1)/2 supersteps.
func TestBitonicStageCount(t *testing.T) {
	n := 64
	in := make([]int64, n)
	res, err := SortBitonic(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	logN := 6
	if want := logN * (logN + 1) / 2; res.Trace.NumSupersteps() != want {
		t.Errorf("supersteps = %d, want %d", res.Trace.NumSupersteps(), want)
	}
}

// TestBitonicVsColumnsort is experiment E13's core claim, in normalized
// per-key cost H·p/n at σ=0.  Bitonic's is exactly Θ(log²p), independent
// of n (the Θ(log²p) suboptimality factor); Columnsort's decreases with n
// toward a constant (the (log n/log(n/p))^{log_{3/2}4} → 1 limit), which
// is the Theorem 4.8 optimality claim made visible.  At simulable sizes
// bitonic's small constants still win in absolute terms — an honest
// finding recorded in E13; the paper's claim is asymptotic.
func TestBitonicVsColumnsort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	norm := func(n, p int, bitonic bool) float64 {
		in := make([]int64, n)
		for i := range in {
			in[i] = rng.Int63()
		}
		var res *Result
		var err error
		if bitonic {
			res, err = SortBitonic(in, Options{Wise: true})
		} else {
			res, err = Sort(in, Options{Wise: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		return eval.H(tracetest.Summary(t, res.Trace), p, 0) * float64(p) / float64(n)
	}
	// Bitonic: normalized cost equals log p(log p+1) (the wiseness
	// dummies double the ideal log p(log p+1)/2) at every n.
	for _, p := range []int{4, 16, 64} {
		lp := 0
		for 1<<uint(lp) < p {
			lp++
		}
		want := float64(lp * (lp + 1))
		for _, n := range []int{1 << 8, 1 << 12} {
			got := norm(n, p, true)
			if got != want {
				t.Errorf("bitonic n=%d p=%d: normalized H = %v, want exactly %v", n, p, got, want)
			}
			shape := theory.PredictedBitonic(float64(n), p, 0) * float64(p) / float64(n)
			if got/shape > 4 || got/shape < 0.5 {
				t.Errorf("bitonic n=%d p=%d: normalized %v vs shape %v", n, p, got, shape)
			}
		}
	}
	// Columnsort: normalized cost strictly decreases as n grows at fixed
	// p (heading for the Θ(1)-optimal regime p = O(n^{1-δ})).
	for _, p := range []int{16, 64} {
		c1 := norm(1<<8, p, false)
		c2 := norm(1<<12, p, false)
		if c2 >= c1 {
			t.Errorf("p=%d: Columnsort normalized cost should fall with n: %v -> %v", p, c1, c2)
		}
	}
}
