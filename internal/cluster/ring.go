package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultVNodes is the virtual-node count per member when the caller
// does not choose one.  At 64 points per member the expected load
// imbalance across a handful of members stays within a few percent,
// while the ring stays small enough that a lookup is a binary search
// over a few hundred entries.
const DefaultVNodes = 64

// Ring is a seeded consistent-hash ring over a static member list.  It
// is immutable after construction, so lookups need no locking: every
// node of a fleet builds the same Ring from the same (seed, vnodes,
// members) configuration and computes identical owners for every key.
type Ring struct {
	seed    uint64
	vnodes  int
	members []string // sorted, deduplicated
	points  []point  // sorted by (hash, member index)
}

// point is one virtual node: a position on the 64-bit hash circle and
// the index of the member it maps to.
type point struct {
	hash uint64
	idx  int32
}

// New builds a ring with vnodes virtual nodes per member (<= 0 means
// DefaultVNodes).  Members are deduplicated and sorted, so two rings
// built from the same set in any order are identical.  At least one
// non-blank member is required.
func New(seed uint64, vnodes int, members []string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if strings.TrimSpace(m) == "" {
			return nil, fmt.Errorf("cluster: blank ring member in %q", members)
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		seed:    seed,
		vnodes:  vnodes,
		members: uniq,
		points:  make([]point, 0, len(uniq)*vnodes),
	}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			h := hashString(seed, m+"#"+strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, idx: int32(i)})
		}
	}
	// Ties (identical hashes) break by member index; members are sorted,
	// so the ordering — and therefore ownership — is independent of the
	// caller's member order.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r, nil
}

// Owner returns the member owning key: the member of the first virtual
// node at or after the key's position on the hash circle, wrapping at
// the top.  It is a pure function of (ring configuration, key).
//
//nob:hotpath
func (r *Ring) Owner(key string) string {
	h := hashString(r.seed, key)
	// Manual binary search for the first point with hash >= h; sort.Search
	// would force a capturing closure onto this path.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap around the top of the circle
	}
	return r.members[r.points[lo].idx]
}

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	i := sort.SearchStrings(r.members, addr)
	return i < len(r.members) && r.members[i] == addr
}

// Members returns the sorted member list (a copy).
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.members) }

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// fnvOffset and fnvPrime are the 64-bit FNV-1a constants.  FNV is used
// (rather than maphash or map iteration order) because placement must
// be identical across processes and releases: the ring is configuration,
// not process state.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString is seeded 64-bit FNV-1a over the seed's bytes followed by
// the key's bytes.
//
//nob:hotpath
func hashString(seed uint64, s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// NormalizeAddr canonicalizes a peer address for ring membership and
// self-identification: trims whitespace and trailing slashes and adds
// an http:// scheme when none is present, so "host:7413" in -peers and
// "http://host:7413" in -self name the same node.
func NormalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	addr = strings.TrimRight(addr, "/")
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return addr
}

// NormalizeAddrs applies NormalizeAddr to a comma-separated or
// pre-split list, dropping empties.
func NormalizeAddrs(addrs []string) []string {
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		for _, part := range strings.Split(a, ",") {
			if n := NormalizeAddr(part); n != "" {
				out = append(out, n)
			}
		}
	}
	return out
}
