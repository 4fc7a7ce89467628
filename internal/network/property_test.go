package network

import (
	"math/rand"
	"testing"
)

// walkPath reconstructs the shortest path src -> dst the tables dictate,
// returning the directed (node, hop) pairs traversed.
func (s *Sim) walkPath(src, dst int) [][2]int {
	var hops [][2]int
	for at := src; at != dst; {
		next := int(s.nextHop[at][dst])
		hops = append(hops, [2]int{at, next})
		at = next
	}
	return hops
}

// congestionBound computes the max-load lower bound of shortest-path
// routing: the largest (packets over a directed link) / (link capacity),
// where capacity is the parallel-edge multiplicity of the link.  Every
// link moves capacity packets per step, so the makespan is at least the
// ceiling of that ratio.
func (s *Sim) congestionBound(msgs [][2]int) int {
	load := map[[2]int]int{}
	for _, m := range msgs {
		for _, hop := range s.walkPath(m[0], m[1]) {
			load[hop]++
		}
	}
	bound := 0
	for hop, n := range load {
		capacity := 0
		for _, g := range s.topo.links[hop[0]] {
			if g.to == int32(hop[1]) {
				capacity = int(g.width)
			}
		}
		if capacity == 0 {
			panic("walked a nonexistent link")
		}
		if b := (n + capacity - 1) / capacity; b > bound {
			bound = b
		}
	}
	return bound
}

// TestRouteLowerBounds is the property test of the routing engine: on
// random h-relations over every topology, the measured makespan is at
// least the max shortest-path distance among routed pairs (a packet
// cannot beat its own path) and at least the congestion bound (a link
// bundle moves only its capacity per step).  The randomized strategy is
// held to the distance bound, which is strategy-independent.
func TestRouteLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	topos := []*Topology{Ring(32), Torus2D(16), Torus3D(64), Hypercube(64), FatTree(32)}
	for _, topo := range topos {
		s := NewSim(topo)
		for trial := 0; trial < 4; trial++ {
			h := 1 + rng.Intn(4)
			level := rng.Intn(2)
			msgs := ClusterHRelation(rng, topo.P, level, h)
			// Add a handful of fully random pairs for non-permutation load.
			for extra := 0; extra < topo.P/2; extra++ {
				msgs = append(msgs, [2]int{rng.Intn(topo.P), rng.Intn(topo.P)})
			}
			maxDist := 0
			for _, m := range msgs {
				if d := int(s.dist[m[0]][m[1]]); d > maxDist {
					maxDist = d
				}
			}
			res := s.RouteWith(ShortestPath(), msgs)
			if res.Delivered != len(msgs) {
				t.Fatalf("%s trial %d: delivered %d of %d", topo.Name, trial, res.Delivered, len(msgs))
			}
			if res.Makespan < maxDist {
				t.Errorf("%s trial %d: makespan %d below distance bound %d", topo.Name, trial, res.Makespan, maxDist)
			}
			if bound := s.congestionBound(msgs); res.Makespan < bound {
				t.Errorf("%s trial %d: makespan %d below congestion bound %d", topo.Name, trial, res.Makespan, bound)
			}
			vres := s.RouteWith(Valiant(int64(trial)), msgs)
			if vres.Delivered != len(msgs) {
				t.Fatalf("%s trial %d: valiant delivered %d of %d", topo.Name, trial, vres.Delivered, len(msgs))
			}
			if vres.Makespan < maxDist {
				t.Errorf("%s trial %d: valiant makespan %d below distance bound %d", topo.Name, trial, vres.Makespan, maxDist)
			}
		}
	}
}

// TestTotalHopsEqualsPathLengths: under shortest-path routing the
// engine's TotalHops is exactly the sum of the table-dictated path
// lengths — no packet wanders.
func TestTotalHopsEqualsPathLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, topo := range []*Topology{Ring(16), Torus3D(8), Hypercube(32), FatTree(16)} {
		s := NewSim(topo)
		var msgs [][2]int
		want := 0
		for i := 0; i < 3*topo.P; i++ {
			m := [2]int{rng.Intn(topo.P), rng.Intn(topo.P)}
			msgs = append(msgs, m)
			want += int(s.dist[m[0]][m[1]])
		}
		if res := s.RouteWith(ShortestPath(), msgs); res.TotalHops != want {
			t.Errorf("%s: TotalHops %d != summed path lengths %d", topo.Name, res.TotalHops, want)
		}
	}
}
