package network

import (
	"fmt"
	"sort"
)

// Topology family names, used by the registry, the harness's D-BSP
// counterpart table, and the nobld analysis API.
const (
	FamilyRing      = "ring"
	FamilyTorus2D   = "torus2d"
	FamilyTorus3D   = "torus3d"
	FamilyHypercube = "hypercube"
	FamilyFatTree   = "fattree"
)

// Topology is an undirected multigraph of nodes.  Nodes 0..P-1 are
// processors (the only legal message endpoints); nodes P..N-1 are
// switches (fat-tree internal nodes), present only in indirect networks.
// Parallel edges model fat links: each parallel edge forwards one packet
// per step, so multiplicity is capacity.
type Topology struct {
	// Name identifies the network family and size.
	Name string
	// Family is the registry family name (FamilyRing, ...).
	Family string
	// P is the number of processors.
	P int
	// N is the total node count including switches; N == P for direct
	// networks (ring, torus, hypercube).
	N int
	// adj[u] lists the neighbors of node u in deterministic order, with
	// parallel edges to the same neighbor listed contiguously.
	adj [][]int

	// Flat directed-edge arrays, built once by finalize: the directed
	// edge (u, ni) has id edgeOff[u]+ni and head edgeHead[edgeOff[u]+ni].
	edgeOff  []int32
	edgeHead []int32
	// links[u] groups u's outgoing edges by neighbor: parallel edges to
	// the same neighbor form one group of consecutive edge ids.
	links [][]linkGroup
}

// linkGroup is the bundle of parallel directed edges from one node to one
// neighbor: edge ids [e0, e0+width).
type linkGroup struct {
	to    int32
	e0    int32
	width int32
}

// Edges returns the number of directed edges (2x the undirected link
// count, counting parallel links individually).
func (t *Topology) Edges() int { return len(t.edgeHead) }

// finalize freezes the adjacency lists into the flat edge arrays the
// routing engine indexes.  Every constructor calls it last.
func (t *Topology) finalize() *Topology {
	t.edgeOff = make([]int32, t.N+1)
	total := 0
	for u := 0; u < t.N; u++ {
		t.edgeOff[u] = int32(total)
		total += len(t.adj[u])
	}
	t.edgeOff[t.N] = int32(total)
	t.edgeHead = make([]int32, 0, total)
	t.links = make([][]linkGroup, t.N)
	for u := 0; u < t.N; u++ {
		for _, w := range t.adj[u] {
			if w == u {
				panic(fmt.Sprintf("network: %s: self loop at node %d", t.Name, u))
			}
			e := int32(len(t.edgeHead))
			t.edgeHead = append(t.edgeHead, int32(w))
			gs := t.links[u]
			if k := len(gs) - 1; k >= 0 && gs[k].to == int32(w) {
				gs[k].width++
			} else {
				t.links[u] = append(gs, linkGroup{to: int32(w), e0: e, width: 1})
			}
		}
	}
	// Contiguity of parallel edges is what lets links[u] be a grouping of
	// consecutive ids; constructors must not interleave them.
	for u := 0; u < t.N; u++ {
		seen := map[int32]bool{}
		for _, g := range t.links[u] {
			if seen[g.to] {
				panic(fmt.Sprintf("network: %s: parallel edges %d->%d not contiguous", t.Name, u, g.to))
			}
			seen[g.to] = true
		}
	}
	return t
}

// mustPow2 validates p as a power of two >= min.
func mustPow2(p, min int, what string) {
	if p < min || p&(p-1) != 0 {
		panic(fmt.Sprintf("network: %s: p=%d must be a power of two >= %d", what, p, min))
	}
}

// Ring builds a p-node ring (the 1-D torus); its D-BSP counterpart is
// dbsp.Mesh(1, p).  p = 1 is the degenerate single-node network: no
// links, every message local.  p = 2 is a single link, not two parallel
// wrap-around links: (u+1) mod 2 and (u-1) mod 2 coincide, and listing
// the coincidence twice would inflate the degree with a phantom edge.
func Ring(p int) *Topology {
	mustPow2(p, 1, "Ring")
	t := &Topology{Name: fmt.Sprintf("ring(p=%d)", p), Family: FamilyRing, P: p, N: p, adj: make([][]int, p)}
	for u := 0; u < p; u++ {
		t.adj[u] = torusLine(u, 1, p, nil)
	}
	return t.finalize()
}

// torusLine appends the +-1 neighbors of coordinate u (stride apart, in a
// cycle of length q) to dst, deduplicating the wrap-around when q == 2
// (where u+1 and u-1 coincide) and emitting nothing when q == 1.
func torusLine(u, stride, q int, dst []int) []int {
	if q == 1 {
		return dst
	}
	base := (u / (stride * q)) * (stride * q)
	off := (u / stride) % q
	dst = append(dst, base+((off+1)%q)*stride+u%stride)
	if q > 2 {
		dst = append(dst, base+((off+q-1)%q)*stride+u%stride)
	}
	return dst
}

// Torus2D builds a √p x √p torus; its D-BSP counterpart is dbsp.Mesh(2, p).
// Node (r, c) has index r·√p + c, so D-BSP clusters (index prefixes) are
// unions of whole rows — submachines with the right bisection, matching
// the recursive decomposition of the 1999 analysis.  Side-2 dimensions
// contribute one link, not two parallel wrap-arounds.
func Torus2D(p int) *Topology {
	q := 1
	for q*q < p {
		q *= 2
	}
	if q*q != p {
		panic(fmt.Sprintf("network: Torus2D needs a square power of two, got %d", p))
	}
	t := &Topology{Name: fmt.Sprintf("torus2D(p=%d)", p), Family: FamilyTorus2D, P: p, N: p, adj: make([][]int, p)}
	for u := 0; u < p; u++ {
		t.adj[u] = torusLine(u, 1, q, t.adj[u]) // row neighbors
		t.adj[u] = torusLine(u, q, q, t.adj[u]) // column neighbors
	}
	return t.finalize()
}

// Torus3D builds a ∛p x ∛p x ∛p torus; its D-BSP counterpart is
// dbsp.Mesh(3, p).  Node (x, y, z) has index (x·∛p + y)·∛p + z, so D-BSP
// clusters are unions of whole planes.
func Torus3D(p int) *Topology {
	q := 1
	for q*q*q < p {
		q *= 2
	}
	if q*q*q != p {
		panic(fmt.Sprintf("network: Torus3D needs a cubic power of two, got %d", p))
	}
	t := &Topology{Name: fmt.Sprintf("torus3D(p=%d)", p), Family: FamilyTorus3D, P: p, N: p, adj: make([][]int, p)}
	for u := 0; u < p; u++ {
		t.adj[u] = torusLine(u, 1, q, t.adj[u])   // z neighbors
		t.adj[u] = torusLine(u, q, q, t.adj[u])   // y neighbors
		t.adj[u] = torusLine(u, q*q, q, t.adj[u]) // x neighbors
	}
	return t.finalize()
}

// Hypercube builds a log p-dimensional binary hypercube; its D-BSP
// counterpart is dbsp.Hypercube(p).
func Hypercube(p int) *Topology {
	mustPow2(p, 2, "Hypercube")
	t := &Topology{Name: fmt.Sprintf("hypercube(p=%d)", p), Family: FamilyHypercube, P: p, N: p, adj: make([][]int, p)}
	for u := 0; u < p; u++ {
		for b := 1; b < p; b *= 2 {
			t.adj[u] = append(t.adj[u], u^b)
		}
	}
	return t.finalize()
}

// FatTree builds an area-universal fat-tree over p processor leaves: a
// complete binary tree whose internal nodes are switches (node ids
// p..2p-2, level by level), with the uplink of a subtree of m leaves
// carrying max(1, m/⌊log2 m⌋) parallel links — the logarithmic bandwidth
// thinning of Leiserson's area-universal construction, matching the
// dbsp.FatTree preset g_i = max(1, log2(p/2^i)).
func FatTree(p int) *Topology {
	mustPow2(p, 2, "FatTree")
	t := &Topology{Name: fmt.Sprintf("fattree(p=%d)", p), Family: FamilyFatTree, P: p, N: 2*p - 1}
	t.adj = make([][]int, t.N)
	// Level ℓ has p/2^ℓ switches covering 2^ℓ leaves each; levelBase maps
	// (level, index) to node ids: level 0 = the processors themselves.
	base := 0
	for m := 1; m < p; m *= 2 {
		nodes := p / m          // nodes at this level
		parent0 := base + nodes // first node of the level above
		for j := 0; j < nodes; j++ {
			u, par := base+j, parent0+j/2
			for k := 0; k < uplinkWidth(m); k++ {
				t.adj[u] = append(t.adj[u], par)
				t.adj[par] = append(t.adj[par], u)
			}
		}
		base = parent0
	}
	return t.finalize()
}

// uplinkWidth is the parallel-link count of the uplink out of a subtree
// with m leaves.
func uplinkWidth(m int) int {
	if m < 2 {
		return 1
	}
	lg := 0
	for q := m; q > 1; q /= 2 {
		lg++
	}
	if w := m / lg; w > 1 {
		return w
	}
	return 1
}

// --- Registry ------------------------------------------------------------

// topologyEntry couples a family's constructor with its size validator.
type topologyEntry struct {
	build func(p int) *Topology
	valid func(p int) error
}

func pow2Valid(min int) func(int) error {
	return func(p int) error {
		if p < min || p&(p-1) != 0 {
			return fmt.Errorf("needs a power of two >= %d, got %d", min, p)
		}
		return nil
	}
}

func rootValid(dim int) func(int) error {
	return func(p int) error {
		if p < 2 || p&(p-1) != 0 {
			return fmt.Errorf("needs a power of two >= 2, got %d", p)
		}
		q := 1
		qd := func(q int) int {
			v := 1
			for i := 0; i < dim; i++ {
				v *= q
			}
			return v
		}
		for qd(q) < p {
			q *= 2
		}
		if qd(q) != p {
			return fmt.Errorf("needs a %d-th power of two, got %d", dim, p)
		}
		return nil
	}
}

var topologies = map[string]topologyEntry{
	FamilyRing:      {Ring, pow2Valid(2)},
	FamilyTorus2D:   {Torus2D, rootValid(2)},
	FamilyTorus3D:   {Torus3D, rootValid(3)},
	FamilyHypercube: {Hypercube, pow2Valid(2)},
	FamilyFatTree:   {FatTree, pow2Valid(2)},
}

// TopologyNames lists the registered families in deterministic order.
func TopologyNames() []string {
	names := make([]string, 0, len(topologies))
	for name := range topologies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TopologyValid reports whether family supports a p-processor instance.
func TopologyValid(family string, p int) bool {
	e, ok := topologies[family]
	return ok && e.valid(p) == nil
}

// TopologyByName builds a p-processor instance of the named family,
// rejecting unknown families and invalid sizes with an error (the
// constructors themselves panic, as programmer-error contracts).
func TopologyByName(family string, p int) (*Topology, error) {
	e, ok := topologies[family]
	if !ok {
		return nil, fmt.Errorf("network: unknown topology %q (have %v)", family, TopologyNames())
	}
	if err := e.valid(p); err != nil {
		return nil, fmt.Errorf("network: %s: %v", family, err)
	}
	return e.build(p), nil
}
