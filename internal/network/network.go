// Package network implements synchronous store-and-forward point-to-point
// network simulators (ring, 2-D/3-D torus, hypercube, area-universal
// fat-tree).  Its purpose in the reproduction is foundational: the paper
// adopts D-BSP(p, g, ℓ) as its execution machine model on the strength of
// Bilardi, Pietracaprina and Pucci (Euro-Par 1999), who show the model's
// 2·log p parameters capture the communication costs of a large class of
// point-to-point networks.  This package rebuilds that evidence
// executably: experiment E14 routes h-relations confined to i-clusters on
// the actual networks and compares the measured makespan against the
// D-BSP prediction h·g_i + ℓ_i of the corresponding preset vectors
// (internal/dbsp).
//
// The simulator model: time advances in synchronous steps; every directed
// link transfers one packet per step (FIFO output queues, unbounded
// buffers); packets follow precomputed shortest-path next-hop tables with
// deterministic tie-breaking, so simulations are reproducible.  Routing
// strategies are pluggable behind the Router interface (router.go): the
// default deterministic shortest-path router, or Valiant-style randomized
// two-phase oblivious routing with a seeded RNG.  The routing core
// (engine.go) is a flat allocation-conscious engine: per-edge ring-buffer
// queues indexed by a contiguous edge array, with an active-edge bitset
// horizon that skips idle links instead of sorting every touched edge on
// every step.
package network

import "netoblivious/internal/obs"

// Sim is a routing simulator for one topology, with precomputed
// shortest-path next-hop tables.  A Sim is not safe for concurrent use:
// RouteWith reuses one engine state across calls.  Every caller (E14,
// the service's network kind, the bench) routes on its Sim sequentially.
type Sim struct {
	topo *Topology
	// nextHop[u][dst] is the neighbor node u forwards packets for dst to.
	nextHop [][]int32
	// dist[u][dst] is the shortest-path distance.
	dist [][]int32
	// state is the engine state (queues, bitsets) kept between RouteWith
	// calls; nil before the first call and while one is running.
	state *routeState

	// Probe, when non-nil, records one "network"-category span per
	// RouteWith call (strategy, message count, makespan, total hops).
	// Set it before routing; nil costs one pointer check per call.
	Probe *obs.Probe
}

// NewSim precomputes deterministic shortest-path routing tables with a
// breadth-first search from every destination (ties broken by smallest
// neighbor index).  Tables cover every node, switches included.
func NewSim(t *Topology) *Sim {
	n := t.N
	s := &Sim{topo: t, nextHop: make([][]int32, n), dist: make([][]int32, n)}
	for u := 0; u < n; u++ {
		s.nextHop[u] = make([]int32, n)
		s.dist[u] = make([]int32, n)
		for d := range s.dist[u] {
			s.dist[u][d] = -1
		}
	}
	queue := make([]int, 0, n)
	for dst := 0; dst < n; dst++ {
		// BFS over reversed edges (graph is undirected).
		queue = queue[:0]
		queue = append(queue, dst)
		s.dist[dst][dst] = 0
		s.nextHop[dst][dst] = int32(dst)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, w := range t.adj[v] {
				if s.dist[w][dst] == -1 {
					s.dist[w][dst] = s.dist[v][dst] + 1
					s.nextHop[w][dst] = int32(v)
					queue = append(queue, w)
				}
			}
		}
	}
	return s
}
