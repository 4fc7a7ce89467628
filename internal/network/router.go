package network

import (
	"fmt"
	"math/rand"
	"sort"
)

// Routing strategy names, used by the registry and the nobld analysis
// API.
const (
	StrategyShortestPath = "shortest-path"
	StrategyValiant      = "valiant"
)

// Router is a pluggable routing strategy: it assigns each injected
// message its in-flight state.  Hop-by-hop forwarding always follows the
// simulator's deterministic shortest-path tables toward Packet.target(),
// so a strategy shapes routes purely through intermediate destinations —
// the oblivious-routing design space of Valiant and of Räcke-style
// schemes, where paths may not depend on the traffic pattern.
type Router interface {
	// Name identifies the strategy.
	Name() string
	// Inject returns the initial routing state of a message src → dst.
	Inject(src, dst int32) Packet
}

// shortestPath routes every packet directly along the precomputed
// shortest path — the deterministic single-phase baseline.
type shortestPath struct{}

func (shortestPath) Name() string { return StrategyShortestPath }

func (shortestPath) Inject(src, dst int32) Packet { return Packet{Dst: dst, Via: -1} }

// ShortestPath returns the deterministic shortest-path router (the
// default strategy).  It is stateless and safe to share.
func ShortestPath() Router { return shortestPath{} }

// valiant implements Valiant's randomized two-phase oblivious routing:
// each packet first travels to a random intermediate node, then to its
// destination.  The intermediate is drawn uniformly from the smallest
// 2^k-aligned index range containing both endpoints — the smallest D-BSP
// cluster enclosing the message — so cluster-confined h-relations stay
// cluster-confined and the h·g_i + ℓ_i comparison remains meaningful.
// Two phases trade a factor ≈2 in distance for congestion that is, with
// high probability, within a constant of optimal for any permutation.
type valiant struct {
	rng *rand.Rand
}

func (*valiant) Name() string { return StrategyValiant }

func (v *valiant) Inject(src, dst int32) Packet {
	if src == dst {
		return Packet{Dst: dst, Via: -1}
	}
	// Smallest aligned power-of-two range [base, base+m) with both ends.
	k := uint(0)
	for src>>k != dst>>k {
		k++
	}
	base := (src >> k) << k
	return Packet{Dst: dst, Via: base + v.rng.Int31n(1<<k)}
}

// Valiant returns a seeded Valiant two-phase router.  Identical seeds
// reproduce identical routes.  Like a Sim, a router instance is not safe
// for concurrent use: every route advances its RNG.  A caller that wants
// each routed set reproducible on its own derives one router per set
// (e.g. seed+i).
func Valiant(seed int64) Router {
	return &valiant{rng: rand.New(rand.NewSource(seed))}
}

// routerFactories registers the strategy constructors.
var routerFactories = map[string]func(seed int64) Router{
	StrategyShortestPath: func(int64) Router { return ShortestPath() },
	StrategyValiant:      Valiant,
}

// RouterNames lists the registered strategies in deterministic order.
func RouterNames() []string {
	names := make([]string, 0, len(routerFactories))
	for name := range routerFactories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RouterByName builds the named strategy; seed only matters for
// randomized ones.
func RouterByName(name string, seed int64) (Router, error) {
	f, ok := routerFactories[name]
	if !ok {
		return nil, fmt.Errorf("network: unknown routing strategy %q (have %v)", name, RouterNames())
	}
	return f(seed), nil
}
