package randalg

import (
	"math/rand"
	"testing"

	"netoblivious/internal/core"
)

// TestGeneratedAlgorithmsAreValid: every generated spec runs cleanly
// (cluster confinement holds by construction) and its messages are all
// delivered.
func TestGeneratedAlgorithmsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		v := 1 << uint(1+rng.Intn(5))
		spec := Random(rng, v, 4, 3)
		tr, err := core.Run(spec.V, spec.Program())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.NumSupersteps() != len(spec.Steps) {
			t.Errorf("trial %d: %d supersteps recorded, want %d", trial, tr.NumSupersteps(), len(spec.Steps))
		}
		var want int64
		for _, st := range spec.Steps {
			want += int64(len(st.Msgs))
		}
		if got := tr.TotalMessages(); got != want {
			t.Errorf("trial %d: %d messages recorded, want %d", trial, got, want)
		}
	}
}

// TestMessagesRespectClusters: the generator never emits a message
// crossing its step's label cluster.
func TestMessagesRespectClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		v := 1 << uint(2+rng.Intn(4))
		spec := Random(rng, v, 5, 3)
		logV := core.Log2(v)
		for si, st := range spec.Steps {
			size := v >> uint(st.Label)
			for _, m := range st.Msgs {
				if m[0]/size != m[1]/size {
					t.Fatalf("trial %d step %d: message %v escapes its %d-cluster", trial, si, m, st.Label)
				}
			}
			if st.Label < 0 || st.Label >= maxInt(1, logV) {
				t.Fatalf("trial %d: bad label %d", trial, st.Label)
			}
		}
	}
}

// TestExpectedDegreeSelfMessages: self messages never count.
func TestExpectedDegreeSelfMessages(t *testing.T) {
	spec := Spec{V: 4, Steps: []StepSpec{{Label: 0, Msgs: [][2]int{{1, 1}, {2, 2}}}}}
	for p := 2; p <= 4; p *= 2 {
		if d := spec.ExpectedDegree(0, p); d != 0 {
			t.Errorf("p=%d: degree %d, want 0", p, d)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
