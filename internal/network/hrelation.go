package network

import (
	"math/rand"
)

// ClusterHRelation generates an h-relation confined to the i-clusters of a
// p-processor machine: within every cluster of m = p/2^i consecutively
// numbered processors, the messages are h independent random permutations
// of the cluster (so every processor sends exactly h and receives exactly
// h messages, none crossing a cluster boundary) — the communication
// pattern of an i-superstep of degree h.
func ClusterHRelation(rng *rand.Rand, p, level, h int) [][2]int {
	m := p >> uint(level)
	if m < 1 {
		panic("network: cluster level too deep")
	}
	var msgs [][2]int
	perm := make([]int, m)
	for base := 0; base < p; base += m {
		for round := 0; round < h; round++ {
			copy(perm, rng.Perm(m))
			for i, j := range perm {
				msgs = append(msgs, [2]int{base + i, base + j})
			}
		}
	}
	return msgs
}
