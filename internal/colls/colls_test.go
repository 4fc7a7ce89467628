package colls

import (
	"testing"

	"netoblivious/internal/core"
	"netoblivious/internal/eval"
)

func add(a, b int64) int64 { return a + b }

// TestBroadcastWithinClusters: two independent 1-clusters broadcast their
// own roots' values.
func TestBroadcastWithinClusters(t *testing.T) {
	const v = 16
	got := make([]int64, v)
	_, err := core.Run(v, func(vp *core.VP[int64]) {
		val := int64(0)
		if vp.ID() == vp.ClusterFirst(1) {
			val = int64(100 + vp.ID())
		}
		got[vp.ID()] = Broadcast(vp, 1, val)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		want := int64(100)
		if i >= v/2 {
			want = 100 + v/2
		}
		if g != want {
			t.Errorf("VP %d got %d, want %d", i, g, want)
		}
	}
}

// TestBroadcastGlobal: label 0 covers the whole machine; degree 1 per
// superstep.
func TestBroadcastGlobal(t *testing.T) {
	const v = 32
	got := make([]int64, v)
	tr, err := core.Run(v, func(vp *core.VP[int64]) {
		val := int64(0)
		if vp.ID() == 0 {
			val = 7
		}
		got[vp.ID()] = Broadcast(vp, 0, val)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g != 7 {
			t.Fatalf("VP %d got %d", i, g)
		}
	}
	for _, rec := range tr.Steps {
		if rec.Degree[tr.LogV] > 1 {
			t.Errorf("broadcast superstep degree %d, want <= 1", rec.Degree[tr.LogV])
		}
	}
	if n := tr.NumSupersteps(); n != 5 {
		t.Errorf("supersteps = %d, want log v = 5", n)
	}
}

// TestReduce leaves the cluster sum on the first VP.
func TestReduce(t *testing.T) {
	const v = 16
	var got int64
	_, err := core.Run(v, func(vp *core.VP[int64]) {
		r := Reduce(vp, 0, int64(vp.ID()), add)
		if vp.ID() == 0 {
			got = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(v * (v - 1) / 2); got != want {
		t.Errorf("reduce = %d, want %d", got, want)
	}
}

// TestAllReduce: every VP gets the cluster sum; butterfly labels stay
// legal at every level.
func TestAllReduce(t *testing.T) {
	const v = 32
	got := make([]int64, v)
	_, err := core.Run(v, func(vp *core.VP[int64]) {
		got[vp.ID()] = AllReduce(vp, 2, int64(vp.ID()), add)
	})
	if err != nil {
		t.Fatal(err)
	}
	m := v / 4 // 2-cluster size
	for i, g := range got {
		base := i / m * m
		want := int64(m*base) + int64(m*(m-1)/2)
		if g != want {
			t.Errorf("VP %d allreduce = %d, want %d", i, g, want)
		}
	}
}

// TestAllGather returns position-indexed values.
func TestAllGather(t *testing.T) {
	const v = 8
	_, err := core.Run(v, func(vp *core.VP[int64]) {
		all := AllGather(vp, 1, int64(vp.ID()*10))
		base := vp.ClusterFirst(1)
		for i, x := range all {
			if x != int64((base+i)*10) {
				panic("allgather wrong value")
			}
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllToAll: VP i sends i·100+t to member t.
func TestAllToAll(t *testing.T) {
	const v = 8
	_, err := core.Run(v, func(vp *core.VP[int64]) {
		size := vp.ClusterSize(0)
		vals := make([]int64, size)
		for tgt := range vals {
			vals[tgt] = int64(vp.ID()*100 + tgt)
		}
		got := AllToAll(vp, 0, vals)
		for src, x := range got {
			if x != int64(src*100+vp.ID()) {
				panic("alltoall wrong value")
			}
		}
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveCosts checks the H profile: tree collectives cost
// Θ((1+σ)·log p), the direct all-gather Θ(m + σ).
func TestCollectiveCosts(t *testing.T) {
	const v = 64
	trTree, err := core.Run(v, func(vp *core.VP[int64]) {
		_ = AllReduce(vp, 0, int64(vp.ID()), add)
	})
	if err != nil {
		t.Fatal(err)
	}
	treeFS := trTree.Summary()
	trGather, err := core.Run(v, func(vp *core.VP[int64]) {
		_ = AllGather(vp, 0, int64(vp.ID()))
		vp.Sync(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	gatherFS := trGather.Summary()
	// AllReduce folded on p: the log p butterfly stages with distance
	// >= v/p cross blocks with every VP sending once, h = v/p each.
	for p := 2; p <= v; p *= 4 {
		h := eval.H(treeFS, p, 0)
		want := float64(v/p) * float64(core.Log2(p))
		if h != want {
			t.Errorf("allreduce H(%d) = %v, want %v", p, h, want)
		}
		// AllGather folded on p: each processor's v/p VPs each send
		// v − v/p block-leaving messages: h = (v/p)·(v − v/p).
		hg := eval.H(gatherFS, p, 0)
		wantG := float64(v/p) * float64(v-v/p)
		if hg != wantG {
			t.Errorf("allgather H(%d) = %v, want %v", p, hg, wantG)
		}
	}
}
