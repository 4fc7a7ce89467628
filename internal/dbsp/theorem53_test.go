package dbsp

import (
	"math"
	"math/rand"
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/eval"
	"netoblivious/internal/tracetest"
)

// TestTheorem53PolylogOverhead: executing an already-wise algorithm
// through the ascend–descend protocol costs at most an O(log²p) factor
// over direct execution (the Theorem 5.3 accounting), and never breaks
// correctness of the profile (nonnegative, complete).
func TestTheorem53PolylogOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const v = 64
	// A balanced workload: every VP exchanges with its complement, then
	// pairwise traffic at a deep label.
	tr, err := core.RunOpt(v, func(vp *core.VP[int]) {
		for r := 0; r < 3; r++ {
			vp.Send(v-1-vp.ID(), r)
			vp.Sync(0)
		}
		for r := 0; r < 3; r++ {
			vp.Send(vp.ID()^1, r)
			vp.Sync(core.Log2(v) - 1)
		}
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = rng
	fs := tracetest.Summary(t, tr)
	for _, pr := range Presets(v) {
		direct := CommTimeSummary(fs, pr)
		pc, err := AscendDescend(tr, v)
		if err != nil {
			t.Fatal(err)
		}
		reb := pc.CommTime(pr)
		lg := math.Log2(float64(v))
		// Theorem 5.3 budget: (1 + 1/γ)·log²p with our explicit protocol
		// constants (2 supersteps + 2·log p prefix steps per level).
		gamma := eval.Fullness(fs, v)
		budget := (1 + 1/gamma) * lg * lg * 16
		if reb > budget*direct {
			t.Errorf("%s: ascend–descend %v exceeds Theorem 5.3 budget %v×direct (%v)", pr.Name, reb, budget, direct)
		}
		if reb <= 0 {
			t.Errorf("%s: nonpositive protocol time %v", pr.Name, reb)
		}
	}
}

// TestAscendDescendProfileShape: the protocol profile has entries for all
// levels and its superstep counts match Lemma 5.1's structure: per
// original i-superstep, one movement superstep plus 2·log2(cluster size)
// prefix supersteps at each level k in [i, log p).
func TestAscendDescendProfileShape(t *testing.T) {
	const v = 16
	tr, err := core.RunOpt(v, func(vp *core.VP[int]) {
		vp.Send(v-1-vp.ID(), 1)
		vp.Sync(0)
		vp.Sync(0)
	}, core.Options{RecordMessages: true})
	if err != nil {
		t.Fatal(err)
	}
	pc, err := AscendDescend(tr, v)
	if err != nil {
		t.Fatal(err)
	}
	lp := core.Log2(v)
	// Two 0-supersteps; each triggers ascend k=lp-1..1 and descend
	// k=0..lp-1: level k appears twice per superstep except k=0 (descend
	// only), each occurrence = 1 + 2(lp-k) supersteps.
	for k := 0; k < lp; k++ {
		occurrences := 2
		if k == 0 {
			occurrences = 1
		}
		want := int64(2 * occurrences * (1 + 2*(lp-k)))
		if pc.S[k] != want {
			t.Errorf("S[%d] = %d, want %d", k, pc.S[k], want)
		}
	}
}
