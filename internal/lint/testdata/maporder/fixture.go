// Package maporder exercises the maporder analyzer: map iteration in
// functions reachable from //nob:deterministic roots must collect and
// sort keys (or be provably order-insensitive).
package maporder

import (
	"sort"
	"strconv"
)

func line(name string, n int) string { return name + "=" + strconv.Itoa(n) }

// RenderReport iterates a map directly in a determinism root.
//
//nob:deterministic
func RenderReport(counts map[string]int) []string {
	out := make([]string, 0, len(counts))
	for name, n := range counts { // want "range over map"
		out = append(out, line(name, n))
	}
	return out
}

// RenderSorted collects keys, sorts, then emits: the compliant shape.
//
//nob:deterministic
func RenderSorted(counts map[string]int) []string {
	ks := make([]string, 0, len(counts))
	for k := range counts {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	out := make([]string, 0, len(ks))
	for _, k := range ks {
		out = append(out, line(k, counts[k]))
	}
	return out
}

// CountAll binds neither key nor value: the body cannot observe order.
//
//nob:deterministic
func CountAll(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// RenderNested reaches a violation through a same-package helper.
//
//nob:deterministic
func RenderNested(m map[string]int) []string { return renderHelper(m) }

func renderHelper(m map[string]int) []string {
	var out []string
	for k, v := range m { // want "range over map"
		out = append(out, line(k, v))
	}
	return out
}

// walker mirrors a per-VP evaluator: its method is reached only from a
// function literal inside the root, the shape of a core.Program body.
type walker struct{ vals map[string]int }

func (w *walker) emit(out *[]string) {
	for k, v := range w.vals { // want "range over map"
		*out = append(*out, line(k, v))
	}
}

// RunProgram reaches a method through the function literal it builds.
//
//nob:deterministic
func RunProgram(m map[string]int) []string {
	var out []string
	prog := func() {
		w := &walker{vals: m}
		w.emit(&out)
	}
	prog()
	return out
}

// Sum reaches an order-insensitive iteration carrying an own-line
// suppression.
//
//nob:deterministic
func Sum(m map[string]int) int { return sum(m) }

func sum(m map[string]int) int {
	t := 0
	//nolint:maporder // addition is order-insensitive
	for _, v := range m {
		t += v
	}
	return t
}

// Checksum carries a trailing suppression on the loop line itself.
//
//nob:deterministic
func Checksum(m map[string]int) int {
	t := 0
	for _, v := range m { //nolint:maporder // xor-free sum, order-insensitive
		t += v
	}
	return t
}

// Unrooted is neither annotated nor referenced by a root: map order may
// leak into its result, but it is outside the contract.
func Unrooted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k+"!")
	}
	return out
}
