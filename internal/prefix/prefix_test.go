package prefix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"netoblivious/internal/core"
	"netoblivious/internal/eval"
	"netoblivious/internal/tracetest"
)

func TestSeqScan(t *testing.T) {
	got := SeqScan([]int64{1, 2, 3, 4}, Sum())
	want := []int64{1, 3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SeqScan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func randInput(rng *rand.Rand, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(2000) - 1000)
	}
	return xs
}

func TestScanVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 32, 256, 1024} {
		xs := randInput(rng, n)
		for _, op := range []Op{Sum(), Max()} {
			want := SeqScan(xs, op)
			r1, err := Scan(xs, op, Options{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := ScanTree(xs, op, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if r1.Prefix[i] != want[i] {
					t.Fatalf("n=%d Scan[%d] = %d, want %d", n, i, r1.Prefix[i], want[i])
				}
				if r2.Prefix[i] != want[i] {
					t.Fatalf("n=%d ScanTree[%d] = %d, want %d", n, i, r2.Prefix[i], want[i])
				}
			}
		}
	}
}

// TestQuickProperty uses testing/quick: both variants agree with the
// sequential scan on arbitrary inputs padded to a power of two.
func TestQuickProperty(t *testing.T) {
	prop := func(raw []int64) bool {
		n := 1
		for n < len(raw)+1 {
			n *= 2
		}
		xs := make([]int64, n)
		copy(xs, raw)
		want := SeqScan(xs, Sum())
		r1, err := Scan(xs, Sum(), Options{})
		if err != nil {
			return false
		}
		r2, err := ScanTree(xs, Sum(), Options{})
		if err != nil {
			return false
		}
		for i := range want {
			if r1.Prefix[i] != want[i] || r2.Prefix[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestWorkAblation: the doubling scan moves Θ(n log n) messages, the tree
// Θ(n); the tree localizes communication (H = Θ(log p)·(1+σ)) while
// doubling pays Θ(log n)·(1+σ) at every fold.
func TestWorkAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	xs := randInput(rng, n)
	doubling, err := Scan(xs, Sum(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	doublingFS := tracetest.Summary(t, doubling.Trace)
	tree, err := ScanTree(xs, Sum(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	treeFS := tracetest.Summary(t, tree.Trace)
	if m1, m2 := doubling.Trace.TotalMessages(), tree.Trace.TotalMessages(); m1 < 4*m2 {
		t.Errorf("doubling (%d msgs) should be ~log n/2 times tree (%d msgs)", m1, m2)
	}
	// Folded on p=4: tree pays ~2·log p supersteps, doubling log n.
	p := 4
	st := eval.Fold(treeFS, p).Supersteps()
	sd := eval.Fold(doublingFS, p).Supersteps()
	if st >= sd {
		t.Errorf("tree supersteps at p=4 (%d) should undercut doubling (%d)", st, sd)
	}
	if int(st) != 2*core.Log2(p) {
		t.Errorf("tree has %d communication supersteps at p=4, want %d", st, 2*core.Log2(p))
	}
}

// TestFullness: both scans are (Θ(1), p)-full (every superstep carries
// Θ(1) messages per VP... per cluster), the hypothesis of Theorem 5.3.
func TestFullness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := randInput(rng, 256)
	tree, err := ScanTree(xs, Sum(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	treeFS := tracetest.Summary(t, tree.Trace)
	for p := 2; p <= 256; p *= 4 {
		if g := eval.Fullness(treeFS, p); g <= 0 {
			t.Errorf("tree fullness γ(%d) = %v, want > 0", p, g)
		}
		if err := eval.CheckFoldingLemma(treeFS, p); err != nil {
			t.Errorf("p=%d: %v", p, err)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Scan(make([]int64, 3), Sum(), Options{}); err == nil {
		t.Error("want error for n=3")
	}
	if _, err := ScanTree(nil, Sum(), Options{}); err == nil {
		t.Error("want error for empty input")
	}
}
