package network

import (
	"math/rand"
	"testing"
)

// TestRingTwoNodeDedup is the regression test for the phantom-parallel-
// link bug: Ring(2)'s wrap-around neighbor coincides with its forward
// neighbor ((u+1)%2 == (u+p-1)%2), and listing it twice inflated the
// degree with a link the router could never use.
func TestRingTwoNodeDedup(t *testing.T) {
	r := Ring(2)
	for u := 0; u < 2; u++ {
		if got := r.adj[u]; len(got) != 1 || got[0] != 1-u {
			t.Errorf("ring(2) node %d neighbors = %v, want [%d]", u, got, 1-u)
		}
	}
	if e := r.Edges(); e != 2 {
		t.Errorf("ring(2) has %d directed edges, want 2", e)
	}
	s := NewSim(r)
	if d := diameter(s); d != 1 {
		t.Errorf("ring(2) diameter = %d, want 1", d)
	}
	// Two messages over the single 0->1 link serialize: makespan 2, not
	// the 1 a phantom second link would allow.
	res := s.RouteWith(ShortestPath(), [][2]int{{0, 1}, {0, 1}})
	if res.Makespan != 2 || res.Delivered != 2 || res.TotalHops != 2 {
		t.Errorf("ring(2) two-message route = %+v, want makespan 2", res)
	}
}

// TestTorus2DTwoByTwoDedup: the 2x2 torus has side q=2 in both
// dimensions, so every wrap-around collapses; each node has exactly one
// row and one column neighbor.
func TestTorus2DTwoByTwoDedup(t *testing.T) {
	tor := Torus2D(4)
	for u := 0; u < 4; u++ {
		if got := len(tor.adj[u]); got != 2 {
			t.Errorf("torus2D(4) node %d degree = %d, want 2", u, got)
		}
	}
	if e := tor.Edges(); e != 8 {
		t.Errorf("torus2D(4) has %d directed edges, want 8", e)
	}
	s := NewSim(tor)
	if d := diameter(s); d != 2 {
		t.Errorf("torus2D(4) diameter = %d, want 2", d)
	}
	// Node 0 -> 3 is the diagonal: distance 2, and doubling the load on
	// the two disjoint routes still bounds the makespan by serialization.
	res := s.RouteWith(ShortestPath(), [][2]int{{0, 3}, {0, 3}})
	if res.Delivered != 2 || res.Makespan < 2 || res.Makespan > 3 {
		t.Errorf("torus2D(4) diagonal route = %+v, want makespan in [2,3]", res)
	}
}

func TestTorus3DShape(t *testing.T) {
	tor := Torus3D(64) // 4x4x4
	for u := 0; u < 64; u++ {
		if got := len(tor.adj[u]); got != 6 {
			t.Errorf("torus3D(64) node %d degree = %d, want 6", u, got)
		}
	}
	s := NewSim(tor)
	if d := diameter(s); d != 6 {
		t.Errorf("torus3D(64) diameter = %d, want 6 (3 axes x q/2)", d)
	}
	// The 2x2x2 torus is the 3-cube: wrap-around dedup in every axis.
	cube := Torus3D(8)
	for u := 0; u < 8; u++ {
		if got := len(cube.adj[u]); got != 3 {
			t.Errorf("torus3D(8) node %d degree = %d, want 3", u, got)
		}
	}
	if d := diameter(NewSim(cube)); d != 3 {
		t.Errorf("torus3D(8) diameter = %d, want 3", d)
	}
}

func TestFatTreeShape(t *testing.T) {
	p := 16
	ft := FatTree(p)
	if ft.P != p || ft.N != 2*p-1 {
		t.Fatalf("fattree(16): P=%d N=%d, want 16/31", ft.P, ft.N)
	}
	// Every processor has exactly one uplink; switches connect two
	// children bundles and one parent bundle (root: children only).
	for u := 0; u < p; u++ {
		if got := len(ft.adj[u]); got != 1 {
			t.Errorf("fattree leaf %d degree = %d, want 1", u, got)
		}
	}
	s := NewSim(ft)
	// Processor-to-processor diameter: up log p levels, down log p.
	if d := diameter(s); d != 8 {
		t.Errorf("fattree(16) diameter = %d, want 8", d)
	}
	// Uplink widths follow the area-universal thinning m/log2(m).
	for _, tc := range []struct{ m, want int }{{1, 1}, {2, 2}, {4, 2}, {8, 2}, {16, 4}, {32, 6}, {64, 10}} {
		if got := uplinkWidth(tc.m); got != tc.want {
			t.Errorf("uplinkWidth(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
	// Parallel links are real capacity: a full bisection exchange on the
	// fat-tree beats the same exchange on a width-1 binary tree.  Both
	// halves exchange mirrors through the root bundle.
	msgs := bisectionRelation(p, 0, 4)
	res := s.RouteWith(ShortestPath(), msgs)
	if res.Delivered != len(msgs) {
		t.Fatalf("fattree bisection lost messages: %+v", res)
	}
	// 32 packets per direction cross the root; its bundle width is
	// uplinkWidth(8)=2, so serialization alone forces >= 16 steps.
	if res.Makespan < 16 {
		t.Errorf("fattree bisection makespan %d below root-capacity bound 16", res.Makespan)
	}
}

// TestTopologyRegistry covers the by-name constructor table.
func TestTopologyRegistry(t *testing.T) {
	want := []string{FamilyFatTree, FamilyHypercube, FamilyRing, FamilyTorus2D, FamilyTorus3D}
	got := TopologyNames()
	if len(got) != len(want) {
		t.Fatalf("TopologyNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopologyNames() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		topo, err := TopologyByName(name, 64)
		if err != nil {
			t.Fatalf("TopologyByName(%s, 64): %v", name, err)
		}
		if topo.Family != name || topo.P != 64 {
			t.Errorf("%s: family=%q P=%d", name, topo.Family, topo.P)
		}
	}
	// Size validation without panics.
	if _, err := TopologyByName(FamilyTorus2D, 32); err == nil {
		t.Error("torus2d at non-square 32 did not error")
	}
	if _, err := TopologyByName(FamilyTorus3D, 16); err == nil {
		t.Error("torus3d at non-cubic 16 did not error")
	}
	if _, err := TopologyByName("moebius", 16); err == nil {
		t.Error("unknown family did not error")
	}
	if !TopologyValid(FamilyTorus3D, 512) || TopologyValid(FamilyTorus3D, 128) {
		t.Error("TopologyValid torus3d: want 512 valid, 128 invalid")
	}
}

// TestNewTopologiesRouteHRelations: the engine delivers every message of
// cluster h-relations on the new topologies too.
func TestNewTopologiesRouteHRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, topo := range []*Topology{Torus3D(64), FatTree(64)} {
		s := NewSim(topo)
		for _, level := range []int{0, 2} {
			for _, h := range []int{1, 4} {
				msgs := ClusterHRelation(rng, topo.P, level, h)
				res := s.RouteWith(ShortestPath(), msgs)
				if res.Delivered != len(msgs) {
					t.Errorf("%s level=%d h=%d: delivered %d of %d", topo.Name, level, h, res.Delivered, len(msgs))
				}
			}
		}
	}
}
