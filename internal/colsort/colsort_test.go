package colsort

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/eval"
	"netoblivious/internal/theory"
)

func isSorted(a []int64) bool {
	return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
}

// TestShapeCondition: every shape satisfies Leighton's r >= 2(s-1)² and
// r >= s, with s = Θ(size^{1/3}).
func TestShapeCondition(t *testing.T) {
	for size := 16; size <= 1<<20; size *= 2 {
		r, s := Shape(size)
		if r*s != size {
			t.Fatalf("size %d: r·s = %d", size, r*s)
		}
		if r < 2*(s-1)*(s-1) {
			t.Errorf("size %d: r=%d < 2(s-1)²=%d", size, r, 2*(s-1)*(s-1))
		}
		if r < s {
			t.Errorf("size %d: r=%d < s=%d", size, r, s)
		}
		if s < 2 {
			t.Errorf("size %d: s=%d < 2 makes no progress", size, s)
		}
	}
}

// TestSeqColumnsortZeroOneExhaustive applies the 0-1 principle to the
// sequential mirror: all 2^16 zero-one inputs of length 16 must sort.
// (Length <= 8 is the brute-force base case, so 16 is the first size that
// exercises the eight phases.)
func TestSeqColumnsortZeroOneExhaustive(t *testing.T) {
	n := 16
	for mask := 0; mask < 1<<uint(n); mask++ {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(mask >> uint(i) & 1)
		}
		if out := SeqColumnsort(in); !isSorted(out) {
			t.Fatalf("0-1 input %016b not sorted: %v", mask, out)
		}
	}
}

// TestSeqColumnsortZeroOneLarger samples 0-1 inputs at sizes that exercise
// deeper recursion and different shapes.
func TestSeqColumnsortZeroOneLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 64, 128, 256, 512, 1024, 4096, 1 << 14} {
		trials := 300
		if n > 256 {
			trials = 300 * 256 / n // keep the large shapes affordable
		}
		if trials < 10 {
			trials = 10
		}
		for trial := 0; trial < trials; trial++ {
			in := make([]int64, n)
			for i := range in {
				in[i] = int64(rng.Intn(2))
			}
			if out := SeqColumnsort(in); !isSorted(out) {
				t.Fatalf("n=%d trial %d: 0-1 input not sorted", n, trial)
			}
		}
		// Adversarial: single 1 / single 0 at every position near column
		// boundaries.
		r, _ := Shape(n)
		for _, posn := range []int{0, 1, r - 1, r, r + 1, n - r, n - 1, n/2 - 1, n / 2} {
			in := make([]int64, n)
			in[posn] = 1
			if out := SeqColumnsort(in); !isSorted(out) {
				t.Fatalf("n=%d: single 1 at %d not sorted", n, posn)
			}
			for i := range in {
				in[i] = 1
			}
			in[posn] = 0
			if out := SeqColumnsort(in); !isSorted(out) {
				t.Fatalf("n=%d: single 0 at %d not sorted", n, posn)
			}
		}
	}
}

// TestSortCorrectness: the parallel sort against sort.Slice on random,
// sorted, reversed, and constant inputs.
func TestSortCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024} {
		inputs := [][]int64{make([]int64, n)}
		asc := make([]int64, n)
		desc := make([]int64, n)
		rnd := make([]int64, n)
		dup := make([]int64, n)
		for i := 0; i < n; i++ {
			asc[i] = int64(i)
			desc[i] = int64(n - i)
			rnd[i] = int64(rng.Intn(1000) - 500)
			dup[i] = int64(rng.Intn(3))
		}
		inputs = append(inputs, asc, desc, rnd, dup)
		for which, in := range inputs {
			want := append([]int64(nil), in...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			res, err := Sort(in, Options{Wise: true})
			if err != nil {
				t.Fatalf("n=%d input %d: %v", n, which, err)
			}
			for i := range want {
				if res.Keys[i] != want[i] {
					t.Fatalf("n=%d input %d: Keys[%d] = %d, want %d\nin: %v\ngot: %v", n, which, i, res.Keys[i], want[i], in, res.Keys)
				}
			}
		}
	}
}

// TestParallelMatchesSequentialMirror: the parallel execution implements
// exactly the same permutations as SeqColumnsort.
func TestParallelMatchesSequentialMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64, 512} {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64(rng.Intn(50))
		}
		res, err := Sort(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq := SeqColumnsort(in)
		for i := range seq {
			if res.Keys[i] != seq[i] {
				t.Fatalf("n=%d: parallel and sequential mirrors diverge at %d", n, i)
			}
		}
	}
}

// TestSortComplexity verifies Theorem 4.8's shape.
func TestSortComplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1 << 12
	in := make([]int64, n)
	for i := range in {
		in[i] = rng.Int63()
	}
	res, err := Sort(in, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Trace.Summary()
	for p := 2; p <= n; p *= 8 {
		h := eval.H(fs, p, 0)
		pred := theory.PredictedSort(float64(n), p, 0)
		ratio := h / pred
		if ratio > 30 || ratio < 0.01 {
			t.Errorf("p=%d: H=%v vs predicted %v (ratio %v)", p, h, pred, ratio)
		}
	}
	// Optimality band for moderate p: H within a constant factor of the
	// sorting lower bound when p = O(n^{1-δ}).
	p := 1 << 4
	beta := eval.BetaOptimality(theory.LowerBoundSort(float64(n), p, 0), eval.H(fs, p, 0))
	if beta < 0.02 {
		t.Errorf("β(%d) = %v, want bounded below", p, beta)
	}
}

// TestWiseness: with dummies the sort is (Θ(1), n)-wise.
func TestWiseness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 512
	in := make([]int64, n)
	for i := range in {
		in[i] = rng.Int63()
	}
	res, err := Sort(in, Options{Wise: true})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Trace.Summary()
	for p := 2; p <= n; p *= 4 {
		if alpha := eval.Wiseness(fs, p); alpha < 0.05 {
			t.Errorf("α(%d) = %v, want Θ(1)", p, alpha)
		}
	}
	for p := 2; p <= n; p *= 2 {
		if err := eval.CheckFoldingLemma(fs, p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

// TestStability: equal keys keep their input order (a bonus of the tag
// tie-break; also catches permutation bugs that shuffle equals).
func TestStability(t *testing.T) {
	n := 64
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i % 4)
	}
	res, err := Sort(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !isSorted(res.Keys) {
		t.Fatal("not sorted")
	}
}

// TestSortAllocsPerVPSuperstep: the VPs' local work allocates nothing
// per superstep — the step functions keep each VP's key in one slice and
// gather Columnsort's base cases into buffers carved from one arena per
// run — so a whole block-engine run of Columnsort or of the bitonic
// network stays far below one allocation per VP-superstep (a
// per-superstep []kv plus sort.Slice cost about 1.7).
func TestSortAllocsPerVPSuperstep(t *testing.T) {
	if testing.Short() {
		t.Skip("six sorts at n=1024")
	}
	const n = 1024
	rng := rand.New(rand.NewSource(6))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	opts := Options{Engine: core.BlockEngine{}}
	for _, c := range []struct {
		name string
		sort func([]int64, Options) (*Result, error)
	}{{"columnsort", Sort}, {"bitonic", SortBitonic}} {
		res, err := c.sort(keys, opts) // warm-up
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := c.sort(keys, opts); err != nil {
				t.Fatal(err)
			}
		})
		per := allocs / float64(n*res.Trace.NumSupersteps())
		if per >= 0.1 {
			t.Errorf("%s: %.0f allocations per run = %.3f per VP-superstep, want < 0.1", c.name, allocs, per)
		}
		t.Logf("%s: %.0f allocations per run = %.4f per VP-superstep", c.name, allocs, per)
	}
}

// TestValidation rejects bad inputs.
func TestValidation(t *testing.T) {
	if _, err := Sort(make([]int64, 3), Options{}); err == nil {
		t.Error("want error for n=3")
	}
	if _, err := SortBase(make([]int64, 16), 4, Options{}); err == nil {
		t.Error("want error for BaseSize < 8")
	}
}

// SeqColumnsort is a sequential mirror of the parallel algorithm: the same
// shapes, permutations and recursion, executed on a slice.  It exists so
// the permutation logic can be validated exhaustively (0-1 principle)
// without spinning up machines, and so the parallel runs can be checked
// step-for-step against it.
func SeqColumnsort(keys []int64) []int64 {
	n := len(keys)
	if n&(n-1) != 0 || n == 0 {
		panic("colsort: SeqColumnsort needs a power-of-two length")
	}
	a := make([]kv, n)
	for i, k := range keys {
		a[i] = kv{key: k, tag: int32(i)}
	}
	seqRec(a, make([]kv, n), 8)
	out := make([]int64, n)
	for i, e := range a {
		out[i] = e.key
	}
	return out
}

// seqRec sorts a in place.  tmp is scratch of the same length: each
// permutation writes into it and copies back, and column recursions
// borrow its matching sub-ranges, so the whole sort allocates nothing.
func seqRec(a, tmp []kv, baseSize int) {
	size := len(a)
	if size == 1 {
		return
	}
	if size <= baseSize {
		slices.SortFunc(a, cmpKV)
		return
	}
	r, s := Shape(size)

	seqColumns(a, tmp, r, baseSize) // 1
	for pos, e := range a {         // 2: transpose
		tmp[pos%s*r+pos/s] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 3
	for pos, e := range a {         // 4: untranspose
		tmp[pos%r*s+pos/r] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 5
	for pos, e := range a {         // 6: shift
		tmp[(pos+r/2)%size] = e
	}
	copy(a, tmp)
	seqColumns(a, tmp, r, baseSize) // 7
	for pos, e := range a {         // 8: inverse shift with column-0 wrap
		switch {
		case pos >= r:
			tmp[pos-r/2] = e
		case pos < r/2:
			tmp[pos] = e
		default:
			tmp[size-r+pos] = e
		}
	}
	copy(a, tmp)
}

// seqColumns sorts each r-key column of a.
func seqColumns(a, tmp []kv, r, baseSize int) {
	for c := 0; c < len(a); c += r {
		seqRec(a[c:c+r], tmp[c:c+r], baseSize)
	}
}
