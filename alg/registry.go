package alg

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Algorithm is a typed descriptor of one runnable network-oblivious
// algorithm: the metadata every analysis surface serves plus the
// executable entry point.  Descriptors are plain values; copies are
// cheap and safe to pass around.
type Algorithm struct {
	// Name is the registry key.  It appears in trace-store keys, CLI
	// arguments and service requests, so it must be non-empty and free
	// of '/', '@' and whitespace.
	Name string
	// Doc describes the algorithm and how n is interpreted (one line).
	Doc string
	// SizeDoc states the size constraint in prose, e.g. "a power of two
	// >= 2".  It is surfaced alongside size errors on every interface.
	SizeDoc string
	// Sizes lists the default input sizes, in ascending order: the
	// ladder the cross-engine equivalence tests walk and the sweep
	// analysis surfaces suggest.  Access through DefaultSizes.
	Sizes []int
	// Valid is the size predicate; nil accepts every n >= 1.  Access
	// through ValidSize, which wraps rejections into a *SizeError.
	Valid func(n int) error
	// RunFn executes the algorithm on a deterministic input of size n
	// under the given spec and returns its trace.  The engine reaches
	// the runtime through the spec, so concurrent runs with different
	// engines cannot race.  Call through Run, which validates the size
	// first.
	RunFn func(ctx context.Context, spec Spec, n int) (Result, error)
}

// ValidSize reports whether the algorithm accepts input size n, wrapping
// rejections into a *SizeError that carries the size doc.
func (a Algorithm) ValidSize(n int) error {
	if a.Valid == nil {
		if n < 1 {
			return &SizeError{Algorithm: a.Name, N: n, Reason: "not positive", SizeDoc: a.SizeDoc}
		}
		return nil
	}
	if err := a.Valid(n); err != nil {
		return &SizeError{Algorithm: a.Name, N: n, Reason: err.Error(), SizeDoc: a.SizeDoc}
	}
	return nil
}

// DefaultSizes returns a copy of the algorithm's default size ladder.
func (a Algorithm) DefaultSizes() []int {
	return append([]int(nil), a.Sizes...)
}

// Run validates n, resolves the effective context (the explicit ctx wins
// over spec.Ctx; nil means no cancellation) and executes the algorithm.
func (a Algorithm) Run(ctx context.Context, spec Spec, n int) (Result, error) {
	if err := a.ValidSize(n); err != nil {
		return Result{}, err
	}
	if a.RunFn == nil {
		return Result{}, fmt.Errorf("algorithm %q has no run function", a.Name)
	}
	if ctx != nil {
		spec.Ctx = ctx
	}
	return a.RunFn(spec.Ctx, spec, n)
}

// registry is the process-wide algorithm table.  Lookups are map-backed
// and the sorted listing is rebuilt once per Register (copy-on-write),
// never per call — both are allocation-free on the read path.
var registry = struct {
	sync.RWMutex
	byName map[string]Algorithm
	sorted []Algorithm // ascending by Name; shared read-only snapshot
}{byName: map[string]Algorithm{}}

// Register adds an algorithm to the registry.  It enforces the registry
// contract at the door: a well-formed unique name, non-empty docs, a run
// function, and at least one default size — each accepted by ValidSize —
// so every registered algorithm is immediately usable by every surface.
func Register(a Algorithm) error {
	if a.Name == "" {
		return fmt.Errorf("alg: cannot register an algorithm without a name")
	}
	if strings.ContainsAny(a.Name, "/@ \t\n") {
		return fmt.Errorf("alg: name %q must not contain '/', '@' or whitespace", a.Name)
	}
	if a.Doc == "" {
		return fmt.Errorf("alg: algorithm %q needs a Doc line", a.Name)
	}
	if a.RunFn == nil {
		return fmt.Errorf("alg: algorithm %q needs a RunFn", a.Name)
	}
	if len(a.Sizes) == 0 {
		return fmt.Errorf("alg: algorithm %q needs at least one default size", a.Name)
	}
	for _, n := range a.Sizes {
		if err := a.ValidSize(n); err != nil {
			return fmt.Errorf("alg: algorithm %q rejects its own default size: %w", a.Name, err)
		}
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[a.Name]; dup {
		return fmt.Errorf("alg: algorithm %q is already registered", a.Name)
	}
	registry.byName[a.Name] = a
	next := make([]Algorithm, 0, len(registry.sorted)+1)
	next = append(next, registry.sorted...)
	next = append(next, a)
	sort.Slice(next, func(i, j int) bool { return next[i].Name < next[j].Name })
	registry.sorted = next
	return nil
}

// MustRegister is Register, panicking on error — the form package init
// functions use.
func MustRegister(a Algorithm) {
	if err := Register(a); err != nil {
		panic(err)
	}
}

// ByName looks up a registered algorithm.  The lookup is a map access —
// it never rebuilds or scans the listing.
func ByName(name string) (Algorithm, bool) {
	registry.RLock()
	a, ok := registry.byName[name]
	registry.RUnlock()
	return a, ok
}

// All returns every registered algorithm sorted by name.  The slice is a
// shared snapshot rebuilt only when Register runs: callers must treat it
// as read-only.
func All() []Algorithm {
	registry.RLock()
	s := registry.sorted
	registry.RUnlock()
	return s
}
