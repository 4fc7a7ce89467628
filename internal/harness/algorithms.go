package harness

import (
	"netoblivious/alg"

	// The paper's built-in algorithms self-register into the open alg
	// registry from their own packages; the blank imports guarantee the
	// full set is present for every harness consumer even if no
	// experiment file links a package in directly.
	_ "netoblivious/internal/broadcast"
	_ "netoblivious/internal/colsort"
	_ "netoblivious/internal/fft"
	_ "netoblivious/internal/matmul"
	_ "netoblivious/internal/prefix"
	_ "netoblivious/internal/stencil"
)

// TraceAlgorithm is a runnable algorithm descriptor — the open alg
// registry's type.  Every entry derives its input from its own fixed
// seed and every engine yields the same trace, so a run is a pure
// function of (n, record): the property that makes the trace store's
// (algorithm, n, record) keying sound.
type TraceAlgorithm = alg.Algorithm

// TraceAlgorithms returns the runnable algorithm registry sorted by name
// — built-ins plus anything the process registered through alg.Register.
// The slice is a shared read-only snapshot; it is not rebuilt per call.
func TraceAlgorithms() []TraceAlgorithm { return alg.All() }

// TraceAlgorithmByName looks up a registry entry (map-backed; O(1)).
func TraceAlgorithmByName(name string) (TraceAlgorithm, bool) { return alg.ByName(name) }
