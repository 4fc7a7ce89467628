package network

import (
	"math/rand"
	"testing"
)

// The simulators were historically exercised only through E14's mid-range
// configurations; these tests pin the degenerate boundaries: the p=1
// ring, cluster levels deep enough that every cluster is a single
// processor, and empty (h=0) relations.

func TestRingSingleNode(t *testing.T) {
	r := Ring(1)
	if r.P != 1 || len(r.adj[0]) != 0 {
		t.Fatalf("ring(1): P=%d, degree=%d; want an isolated node", r.P, len(r.adj[0]))
	}
	s := NewSim(r)
	if d := diameter(s); d != 0 {
		t.Errorf("ring(1) diameter = %d, want 0", d)
	}
	if d := int(s.dist[0][0]); d != 0 {
		t.Errorf("ring(1) self distance = %d, want 0", d)
	}
	// Every message on a single node is a self message: delivered at time
	// zero, traversing no links.
	res := s.RouteWith(ShortestPath(), [][2]int{{0, 0}, {0, 0}, {0, 0}})
	if res.Makespan != 0 || res.Delivered != 3 || res.TotalHops != 0 {
		t.Errorf("ring(1) routing = %+v, want 3 instant deliveries", res)
	}
}

func TestRouteEmptyMessageSet(t *testing.T) {
	for _, topo := range []*Topology{Ring(1), Ring(8), Torus2D(16), Hypercube(8)} {
		res := NewSim(topo).RouteWith(ShortestPath(), nil)
		if res.Makespan != 0 || res.Delivered != 0 || res.TotalHops != 0 {
			t.Errorf("%s: empty route = %+v, want zeros", topo.Name, res)
		}
	}
}

// TestClusterHRelationUnitClusters: at level = log2 p every cluster is a
// single processor, so the only permutation is the identity — h self
// messages per node, all delivered instantly on every topology.
func TestClusterHRelationUnitClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p, h = 16, 3
	msgs := ClusterHRelation(rng, p, 4, h) // 16 >> 4 = 1: unit clusters
	if len(msgs) != p*h {
		t.Fatalf("message count %d, want %d", len(msgs), p*h)
	}
	for _, m := range msgs {
		if m[0] != m[1] {
			t.Fatalf("unit-cluster relation produced cross message %v", m)
		}
	}
	for _, topo := range []*Topology{Ring(p), Torus2D(p), Hypercube(p)} {
		res := NewSim(topo).RouteWith(ShortestPath(), msgs)
		if res.Makespan != 0 || res.Delivered != p*h || res.TotalHops != 0 {
			t.Errorf("%s: unit-cluster routing = %+v, want instant delivery of %d", topo.Name, res, p*h)
		}
	}
}

// TestClusterHRelationZeroDegree: h = 0 is the empty relation at every
// level, and routing it is free.
func TestClusterHRelationZeroDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, level := range []int{0, 1, 3} {
		msgs := ClusterHRelation(rng, 8, level, 0)
		if len(msgs) != 0 {
			t.Errorf("level %d: h=0 relation has %d messages, want 0", level, len(msgs))
		}
	}
	if res := NewSim(Ring(8)).RouteWith(ShortestPath(), ClusterHRelation(rng, 8, 0, 0)); res != (RouteResult{}) {
		t.Errorf("routing the empty relation = %+v, want zero result", res)
	}
}

// TestBisectionRelationDegenerate: h = 0 and unit clusters (m = 1, no
// halves to mirror) both yield the empty pattern.
func TestBisectionRelationDegenerate(t *testing.T) {
	if msgs := bisectionRelation(16, 0, 0); len(msgs) != 0 {
		t.Errorf("h=0 bisection has %d messages", len(msgs))
	}
	if msgs := bisectionRelation(16, 4, 5); len(msgs) != 0 {
		t.Errorf("unit-cluster bisection has %d messages", len(msgs))
	}
}

// TestClusterHRelationTooDeepPanics pins the contract: levels beyond
// log2 p (m < 1) are programmer errors, reported loudly.
func TestClusterHRelationTooDeepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("level > log2(p) did not panic")
		}
	}()
	ClusterHRelation(rand.New(rand.NewSource(13)), 8, 4, 1)
}

// TestRingOneInvalidSizesStillPanic: widening Ring to p=1 must not have
// loosened the power-of-two requirement.
func TestRingOneInvalidSizesStillPanic(t *testing.T) {
	for _, p := range []int{0, -1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ring(%d) did not panic", p)
				}
			}()
			Ring(p)
		}()
	}
}
