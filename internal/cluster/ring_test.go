package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("trace/fft/n=%d", 1<<uint(i%20))
		if i >= 20 {
			out[i] = fmt.Sprintf("dbsp/sort/n=%d/p=%d,s=16", i, i%64)
		}
	}
	return out
}

// TestRingDeterministicPlacement: rings built from the same member set
// in any order assign every key identically — the property the whole
// fleet relies on to agree on ownership without communicating.
func TestRingDeterministicPlacement(t *testing.T) {
	members := []string{"http://c:1", "http://a:1", "http://b:1"}
	reversed := []string{"http://b:1", "http://a:1", "http://c:1"}
	r1, err := New(7, 64, members)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(7, 64, reversed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(1000) {
		if o1, o2 := r1.Owner(k), r2.Owner(k); o1 != o2 {
			t.Fatalf("member order changed placement of %q: %s vs %s", k, o1, o2)
		}
	}
	// A rebuilt identical ring is point-for-point equal.
	r3, _ := New(7, 64, members)
	if len(r1.points) != len(r3.points) {
		t.Fatalf("rebuilt ring has %d points, want %d", len(r3.points), len(r1.points))
	}
	for i := range r1.points {
		if r1.points[i] != r3.points[i] {
			t.Fatalf("point %d differs across identical builds", i)
		}
	}
}

// TestRingSeedChangesPlacement: the seed is part of the placement
// function, so distinct seeds shuffle ownership.
func TestRingSeedChangesPlacement(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, _ := New(1, 64, members)
	r2, _ := New(2, 64, members)
	moved := 0
	for _, k := range keys(1000) {
		if r1.Owner(k) != r2.Owner(k) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("changing the seed moved no key at all")
	}
}

// TestRingBalance: with the default virtual-node count no member of a
// small fleet is starved or hot by an order of magnitude.
func TestRingBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r, _ := New(1, DefaultVNodes, members)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.08 || share > 0.50 {
			t.Errorf("member %s owns %.1f%% of keys; want a rough quarter", m, 100*share)
		}
	}
}

// TestRingConsistentGrowth: adding a member only moves keys *to* the
// new member — no key shuffles between surviving members.  This is the
// consistent-hashing property that keeps a fleet upgrade from
// invalidating every node's cache.
func TestRingConsistentGrowth(t *testing.T) {
	old := []string{"http://a:1", "http://b:1", "http://c:1"}
	grown := append(append([]string(nil), old...), "http://d:1")
	r1, _ := New(9, 64, old)
	r2, _ := New(9, 64, grown)
	moved := 0
	for _, k := range keys(2000) {
		o1, o2 := r1.Owner(k), r2.Owner(k)
		if o1 == o2 {
			continue
		}
		moved++
		if o2 != "http://d:1" {
			t.Fatalf("key %q moved %s -> %s, not to the new member", k, o1, o2)
		}
	}
	if moved == 0 {
		t.Error("growing the ring moved no key to the new member")
	}
	if frac := float64(moved) / 2000; frac > 0.5 {
		t.Errorf("growth remapped %.0f%% of keys; expected roughly 1/4", 100*frac)
	}
}

func TestRingSingleMemberOwnsEverything(t *testing.T) {
	r, err := New(0, 0, []string{"http://solo:1"})
	if err != nil {
		t.Fatal(err)
	}
	if r.VNodes() != DefaultVNodes {
		t.Errorf("vnodes defaulted to %d, want %d", r.VNodes(), DefaultVNodes)
	}
	for _, k := range keys(100) {
		if o := r.Owner(k); o != "http://solo:1" {
			t.Fatalf("single-member ring assigned %q to %q", k, o)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := New(1, 8, nil); err == nil {
		t.Error("empty member list accepted")
	}
	if _, err := New(1, 8, []string{"http://a:1", "  "}); err == nil {
		t.Error("blank member accepted")
	}
	r, err := New(1, 8, []string{"http://a:1", "http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 {
		t.Errorf("duplicates not deduplicated: size %d", r.Size())
	}
	if !r.Contains("http://a:1") || r.Contains("http://z:1") {
		t.Error("Contains misreports membership")
	}
}

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		"host:7413":           "http://host:7413",
		" http://host:7413/ ": "http://host:7413",
		"https://x.example/":  "https://x.example",
		"":                    "",
		"host:1/":             "http://host:1",
	}
	for in, want := range cases {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
	got := NormalizeAddrs([]string{"a:1,b:2", " c:3 ", ""})
	want := []string{"http://a:1", "http://b:2", "http://c:3"}
	if len(got) != len(want) {
		t.Fatalf("NormalizeAddrs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("NormalizeAddrs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
