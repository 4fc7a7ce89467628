package network

import (
	"math/rand"
	"testing"
)

// benchRelation is the standard benchmark workload: a full h-relation
// (h random permutations) on the whole machine.
func benchRelation(p, h int) [][2]int {
	return ClusterHRelation(rand.New(rand.NewSource(1)), p, 0, h)
}

// BenchmarkRoute measures the flat engine on a p=256 hypercube full
// h-relation — the acceptance workload of the rewrite.
func BenchmarkRoute(b *testing.B) {
	s := NewSim(Hypercube(256))
	msgs := benchRelation(256, 8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.RouteWith(ShortestPath(), msgs)
	}
}

// BenchmarkRouteMapReference is the same workload on the pre-refactor
// map-of-slices simulator; the ratio to BenchmarkRoute is the speedup.
func BenchmarkRouteMapReference(b *testing.B) {
	s := NewSim(Hypercube(256))
	msgs := benchRelation(256, 8)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.routeMapReference(msgs)
	}
}

// BenchmarkRouteTopologies tracks throughput across the topology suite.
func BenchmarkRouteTopologies(b *testing.B) {
	for _, topo := range []*Topology{Ring(256), Torus2D(256), Torus3D(512), Hypercube(256), FatTree(256)} {
		s := NewSim(topo)
		msgs := benchRelation(topo.P, 4)
		b.Run(topo.Family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.RouteWith(ShortestPath(), msgs)
			}
		})
	}
}

// BenchmarkRouteValiant tracks the randomized strategy's overhead.
func BenchmarkRouteValiant(b *testing.B) {
	s := NewSim(Hypercube(256))
	msgs := benchRelation(256, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RouteWith(Valiant(int64(i)), msgs)
	}
}
