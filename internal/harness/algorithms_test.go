package harness

import (
	"strings"
	"testing"

	"netoblivious/alg"
)

// TestRegistryContract asserts the invariants every registered algorithm
// — built-in or user-supplied — must satisfy for the analysis surfaces
// to serve it: unique well-formed names, non-empty documentation, a
// non-empty default size ladder whose every entry the algorithm's own
// ValidSize accepts, and a size doc to render alongside size errors.
func TestRegistryContract(t *testing.T) {
	algos := alg.All()
	if len(algos) < 10 {
		t.Fatalf("registry has %d algorithms; the paper's built-ins alone are 10", len(algos))
	}
	seen := map[string]bool{}
	for _, a := range algos {
		if a.Name == "" || strings.ContainsAny(a.Name, "/@ \t\n") {
			t.Errorf("malformed name %q", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
		if a.SizeDoc == "" {
			t.Errorf("%s: empty SizeDoc", a.Name)
		}
		sizes := a.DefaultSizes()
		if len(sizes) == 0 {
			t.Errorf("%s: no default sizes", a.Name)
			continue
		}
		for i, n := range sizes {
			if err := a.ValidSize(n); err != nil {
				t.Errorf("%s: rejects its own default size %d: %v", a.Name, n, err)
			}
			if i > 0 && sizes[i-1] >= n {
				t.Errorf("%s: default sizes not ascending: %v", a.Name, sizes)
			}
		}
	}
	for _, name := range []string{
		"bitonic", "broadcast-tree", "fft", "fft-iterative", "matmul",
		"matmul-space", "prefix-tree", "sort", "stencil1", "stencil2",
	} {
		if !seen[name] {
			t.Errorf("built-in algorithm %q missing from the registry", name)
		}
	}
}
