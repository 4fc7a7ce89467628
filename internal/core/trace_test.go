package core

import (
	"strings"
	"testing"
)

// exchangeTrace builds a small trace: v=8, one 0-superstep where every VP
// sends to its complement.
func exchangeTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := Run(8, func(vp *VP[int]) {
		vp.Send(7-vp.ID(), 1)
		vp.Sync(0)
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTryLog2(t *testing.T) {
	cases := []struct {
		p, want int
		ok      bool
	}{
		{1, 0, true}, {2, 1, true}, {1024, 10, true},
		{0, 0, false}, {-4, 0, false}, {3, 0, false}, {6, 0, false},
	}
	for _, c := range cases {
		got, err := TryLog2(c.p)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("TryLog2(%d) = (%d, %v), want (%d, nil)", c.p, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("TryLog2(%d): want error", c.p)
		}
	}
}

func TestLog2PanicContract(t *testing.T) {
	if got := Log2(1); got != 0 {
		t.Errorf("Log2(1) = %d, want 0 (p = 1 is valid)", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(3): want panic")
		}
	}()
	Log2(3)
}

// TestTraceFEdges covers the p = 1 and p = V boundaries of a trace's
// folding vector: p = 1 is out of range (a single processor exchanges
// nothing and F has no entries), p = V is the finest legal fold.
func TestTraceFEdges(t *testing.T) {
	tr := exchangeTrace(t)
	fs := tr.Summary()

	if _, err := fs.TryF(1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("TryF(1) = %v, want out-of-range error", err)
	}
	if _, err := fs.TryF(2 * tr.V); err == nil {
		t.Error("TryF(2V): want error")
	}
	if _, err := fs.TryF(3); err == nil {
		t.Error("TryF(3): want error (not a power of two)")
	}

	// p = V: every VP is its own processor; the complement exchange is a
	// 1-relation in the single 0-superstep.
	f, err := fs.TryF(tr.V)
	if err != nil {
		t.Fatalf("TryF(V): %v", err)
	}
	if len(f) != tr.LogV {
		t.Fatalf("len(F(V)) = %d, want %d", len(f), tr.LogV)
	}
	if f[0] != 1 {
		t.Errorf("F(V)[0] = %d, want 1", f[0])
	}

	// F and TryF agree in range, and F hands out copies.
	for p := 2; p <= tr.V; p *= 2 {
		want, err := fs.TryF(p)
		if err != nil {
			t.Fatalf("TryF(%d): %v", p, err)
		}
		got := fs.F(p)
		if len(got) != len(want) {
			t.Fatalf("F(%d) and TryF(%d) disagree", p, p)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("F(%d)[%d] = %d, TryF = %d", p, i, got[i], want[i])
			}
		}
		got[0]++
		if again := fs.F(p); again[0] != want[0] {
			t.Errorf("F(%d) aliases the summary: mutating the result changed it to %v", p, again)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("F(1): want panic per the documented contract")
		}
	}()
	fs.F(1)
}

// TestTraceFSingleVP: on M(1) no fold is legal (LogV = 0), and the
// single label 0 still counts its supersteps.
func TestTraceFSingleVP(t *testing.T) {
	tr, err := Run(1, func(vp *VP[int]) { vp.Sync(0) })
	if err != nil {
		t.Fatal(err)
	}
	fs := tr.Summary()
	if _, err := fs.TryF(1); err == nil {
		t.Error("TryF(1) on M(1): want error")
	}
	if _, err := fs.TryF(2); err == nil {
		t.Error("TryF(2) on M(1): want error (p > V)")
	}
	if fs.LabelBound() != 1 {
		t.Errorf("LabelBound() on M(1) = %d, want 1", fs.LabelBound())
	}
	if s := fs.S(); len(s) != 1 || s[0] != int64(tr.NumSupersteps()) {
		t.Errorf("S on M(1) = %v, want [%d]", s, tr.NumSupersteps())
	}
}
