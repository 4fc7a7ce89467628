package network

import (
	"math/rand"
	"testing"

	"netoblivious/internal/dbsp"
)

func TestTopologyShapes(t *testing.T) {
	r := Ring(8)
	for u := 0; u < 8; u++ {
		if len(r.adj[u]) != 2 {
			t.Errorf("ring node %d has degree %d", u, len(r.adj[u]))
		}
	}
	h := Hypercube(16)
	for u := 0; u < 16; u++ {
		if len(h.adj[u]) != 4 {
			t.Errorf("hypercube node %d has degree %d", u, len(h.adj[u]))
		}
	}
	tor := Torus2D(16)
	for u := 0; u < 16; u++ {
		if len(tor.adj[u]) != 4 {
			t.Errorf("torus node %d has degree %d", u, len(tor.adj[u]))
		}
	}
}

func TestDiameters(t *testing.T) {
	if d := diameter(NewSim(Ring(16))); d != 8 {
		t.Errorf("ring(16) diameter = %d, want 8", d)
	}
	if d := diameter(NewSim(Hypercube(32))); d != 5 {
		t.Errorf("hypercube(32) diameter = %d, want 5", d)
	}
	if d := diameter(NewSim(Torus2D(16))); d != 4 {
		t.Errorf("torus2D(16) diameter = %d, want 4", d)
	}
}

func TestShortestPathTables(t *testing.T) {
	// Next hops must strictly decrease distance.
	for _, topo := range []*Topology{Ring(16), Torus2D(16), Hypercube(16)} {
		s := NewSim(topo)
		for u := 0; u < topo.P; u++ {
			for d := 0; d < topo.P; d++ {
				if u == d {
					continue
				}
				hop := int(s.nextHop[u][d])
				if int(s.dist[hop][d]) != int(s.dist[u][d])-1 {
					t.Fatalf("%s: next hop %d->%d via %d does not descend", topo.Name, u, d, hop)
				}
			}
		}
	}
}

func TestRouteSingleMessage(t *testing.T) {
	s := NewSim(Ring(16))
	res := s.RouteWith(ShortestPath(), [][2]int{{0, 8}})
	if res.Makespan != 8 || res.Delivered != 1 || res.TotalHops != 8 {
		t.Errorf("single message: %+v, want makespan 8", res)
	}
	// Self message: free.
	res = s.RouteWith(ShortestPath(), [][2]int{{3, 3}})
	if res.Makespan != 0 || res.Delivered != 1 {
		t.Errorf("self message: %+v", res)
	}
}

func TestRouteAllToOneCongestion(t *testing.T) {
	// p-1 senders into one node on a ring: the receiver's two links are
	// the bottleneck, so makespan >= (p-1)/2.
	p := 32
	s := NewSim(Ring(p))
	var msgs [][2]int
	for u := 1; u < p; u++ {
		msgs = append(msgs, [2]int{u, 0})
	}
	res := s.RouteWith(ShortestPath(), msgs)
	if res.Delivered != p-1 {
		t.Fatalf("delivered %d, want %d", res.Delivered, p-1)
	}
	if res.Makespan < (p-1)/2 {
		t.Errorf("all-to-one makespan %d below bandwidth bound %d", res.Makespan, (p-1)/2)
	}
}

func TestRoutePermutationDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, topo := range []*Topology{Ring(32), Torus2D(64), Hypercube(64)} {
		s := NewSim(topo)
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(topo.P)
			msgs := make([][2]int, topo.P)
			for i, j := range perm {
				msgs[i] = [2]int{i, j}
			}
			res := s.RouteWith(ShortestPath(), msgs)
			if res.Delivered != topo.P {
				t.Fatalf("%s: delivered %d of %d", topo.Name, res.Delivered, topo.P)
			}
			if res.Makespan > 4*diameter(s)+topo.P/2 {
				t.Errorf("%s: permutation makespan %d unreasonably high", topo.Name, res.Makespan)
			}
		}
	}
}

// TestDBSPPredictionBand is the heart of experiment E14: routing a
// cluster-confined h-relation on the real network takes time within a
// constant band of the D-BSP prediction h·g_i + ℓ_i of the matching
// preset vectors.
func TestDBSPPredictionBand(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const p = 64
	cases := []struct {
		topo *Topology
		pr   dbsp.Params
	}{
		{Ring(p), dbsp.Mesh(1, p)},
		{Torus2D(p), dbsp.Mesh(2, p)},
		{Hypercube(p), dbsp.Hypercube(p)},
	}
	for _, c := range cases {
		s := NewSim(c.topo)
		for _, level := range []int{0, 2, 4} {
			for _, h := range []int{1, 4, 16} {
				msgs := ClusterHRelation(rng, p, level, h)
				res := s.RouteWith(ShortestPath(), msgs)
				if res.Delivered != len(msgs) {
					t.Fatalf("%s: lost messages", c.topo.Name)
				}
				pred := float64(h)*c.pr.G[level] + c.pr.L[level]
				ratio := float64(res.Makespan) / pred
				if ratio > 3 || ratio < 0.02 {
					t.Errorf("%s level=%d h=%d: makespan %d vs D-BSP %.0f (ratio %.3f) outside band",
						c.topo.Name, level, h, res.Makespan, pred, ratio)
				}
			}
		}
	}
}

// TestClusterHRelationShape: every processor sends and receives exactly h,
// and no message crosses its cluster.
func TestClusterHRelationShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, level, h := 32, 2, 3
	msgs := ClusterHRelation(rng, p, level, h)
	m := p >> uint(level)
	sent := make([]int, p)
	recv := make([]int, p)
	for _, msg := range msgs {
		sent[msg[0]]++
		recv[msg[1]]++
		if msg[0]/m != msg[1]/m {
			t.Fatalf("message %v crosses cluster boundary", msg)
		}
	}
	for u := 0; u < p; u++ {
		if sent[u] != h || recv[u] != h {
			t.Errorf("node %d: sent %d recv %d, want %d", u, sent[u], recv[u], h)
		}
	}
}

// TestBisectionRelation checks the mirror pattern and that its routing
// time on a ring reflects the bisection bound h·m/2... per direction the
// m/2·h packets cross two links, so makespan >= h·m/8.
func TestBisectionRelation(t *testing.T) {
	p := 32
	h := 4
	msgs := bisectionRelation(p, 0, h)
	if len(msgs) != p*h {
		t.Fatalf("message count %d, want %d", len(msgs), p*h)
	}
	s := NewSim(Ring(p))
	res := s.RouteWith(ShortestPath(), msgs)
	if res.Makespan < h*p/8 {
		t.Errorf("bisection makespan %d below bandwidth bound %d", res.Makespan, h*p/8)
	}
}

// diameter is the maximum shortest-path distance between two processors
// (switch nodes are route infrastructure, not endpoints).
func diameter(s *Sim) int {
	m := 0
	for u := 0; u < s.topo.P; u++ {
		for _, d := range s.dist[u][:s.topo.P] {
			m = max(m, int(d))
		}
	}
	return m
}

// bisectionRelation generates the worst-case pattern for bandwidth
// analysis: every processor of the lower half of each i-cluster exchanges
// h messages with its mirror in the upper half.
func bisectionRelation(p, level, h int) [][2]int {
	m := p >> uint(level)
	var msgs [][2]int
	for base := 0; base < p; base += m {
		for i := 0; i < m/2; i++ {
			for k := 0; k < h; k++ {
				msgs = append(msgs, [2]int{base + i, base + i + m/2})
				msgs = append(msgs, [2]int{base + i + m/2, base + i})
			}
		}
	}
	return msgs
}
