// Package alg is the public algorithm API of the network-oblivious
// framework: the interface through which an algorithm — a program written
// once against the specification model M(v), with no machine parameter
// beyond the input size — becomes a first-class citizen of every analysis
// surface in the repository.
//
// The package has three pieces:
//
//   - Spec, the single unified run configuration (execution engine,
//     message recording, wiseness dummies, cancellation context) shared
//     by every algorithm package in place of per-package option structs;
//   - Algorithm, a typed descriptor carrying the metadata an analysis
//     surface needs — documentation, the size constraint as both a
//     checkable predicate (ValidSize) and prose (SizeDoc), default sizes
//     for tests and sweeps — plus the executable Run entry point;
//   - an open, concurrency-safe registry (Register, ByName, All) that
//     the paper's built-in algorithms self-register into and that
//     user-defined algorithms join through the same door.
//
// An algorithm registered here is immediately traceable by `nobl trace`,
// analyzable by the nobld service (POST /v1/analyze), listed with its
// metadata by GET /v1/algorithms and `nobl algorithms`, memoizable by the
// shared trace store, and covered by the repository's cross-engine
// equivalence tests — none of which know its name.
//
// Registered algorithms must be deterministic: a run may depend only on
// (n, Spec.Record), never on ambient state, and every engine must yield
// the same trace.  Derive inputs from SeededRand (or any fixed seed) so
// the trace store's (algorithm, n) keying stays sound.  See
// examples/custom-algorithm for a complete user-defined algorithm
// flowing through every surface.
package alg

import (
	"context"
	"fmt"
	"math/rand"

	"netoblivious/internal/core"
	"netoblivious/internal/obs"
)

// Spec is the unified run configuration every algorithm entry point
// accepts: the four knobs that were once copy-pasted across seven
// per-package Options structs.  The zero value is a valid default
// (block engine, no recording, no wiseness dummies, no cancellation).
type Spec struct {
	// Engine selects the core execution engine; nil uses the BlockEngine.
	// Tests set it to the GoroutineEngine to run the reference: engines
	// change scheduling cost only, and every engine produces the
	// identical trace for a valid program.
	Engine core.Engine
	// Record enables message-pair recording in the trace, which the
	// cache-simulation analyses require and everything else skips.
	Record bool
	// Wise adds the paper's dummy messages where the algorithm supports
	// them, making it (Θ(1), v)-wise (Definition 3.2).  Algorithms
	// without a wise variant ignore the flag.
	Wise bool
	// Ctx cancels the specification-model run at superstep granularity;
	// nil disables cancellation.
	Ctx context.Context
	// Sink streams the trace out of the run superstep by superstep
	// instead of accumulating it in memory, bounding peak memory by the
	// largest superstep rather than the whole trace (see
	// core.Options.Sink).  The Result then carries a metadata-only
	// Trace.  nil keeps the in-memory default.
	Sink core.TraceSink
	// Probe records per-superstep engine spans for timeline export (see
	// core.Options.Probe and `nobl prof`).  nil — the default — disables
	// instrumentation at provably negligible cost.
	Probe *obs.Probe
}

// RunOptions translates the spec into core run options, for algorithm
// implementations that call the M(v) runtime directly.
func (s Spec) RunOptions() core.Options {
	return core.Options{RecordMessages: s.Record, Engine: s.Engine, Context: s.Ctx, Sink: s.Sink, Probe: s.Probe}
}

// Result is what running a registered algorithm yields: the communication
// trace — sufficient to evaluate the algorithm on every folding, every σ,
// and every D-BSP machine — plus optional run metadata.
type Result struct {
	// Trace is the recorded communication of the M(v) execution.
	Trace *core.Trace
	// PeakEntries is the peak per-VP element count for algorithms that
	// report a memory-blow-up metric (the matmul family); 0 otherwise.
	PeakEntries int
}

// SizeError reports that an input size violates an algorithm's size
// constraint.  It is the typed error every surface renders: nobld turns
// it into an HTTP 400 carrying the size doc, nobl trace into a non-zero
// exit with a usage hint.
type SizeError struct {
	// Algorithm is the registry name of the rejecting algorithm.
	Algorithm string
	// N is the rejected input size.
	N int
	// Reason is the predicate's own message (e.g. "not a power of two").
	Reason string
	// SizeDoc is the algorithm's prose size constraint.
	SizeDoc string
}

func (e *SizeError) Error() string {
	msg := fmt.Sprintf("algorithm %q does not accept n=%d: %s", e.Algorithm, e.N, e.Reason)
	if e.SizeDoc != "" {
		msg += fmt.Sprintf(" (valid sizes: %s)", e.SizeDoc)
	}
	return msg
}

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// PowerOfTwo returns a size predicate accepting powers of two >= min.
func PowerOfTwo(min int) func(n int) error {
	return func(n int) error {
		if !IsPowerOfTwo(n) {
			return fmt.Errorf("not a power of two")
		}
		if n < min {
			return fmt.Errorf("below the minimum size %d", min)
		}
		return nil
	}
}

// SquareSide returns the smallest power of two s with s² >= n — for a
// size accepted by SquareOfPowerOfTwo, the matrix side s = √n.
func SquareSide(n int) int {
	s := 1
	for s*s < n {
		s *= 2
	}
	return s
}

// SquareOfPowerOfTwo returns a size predicate accepting n = s² with s a
// power of two and n >= min — the matmul family's constraint, where n
// counts matrix entries.
func SquareOfPowerOfTwo(min int) func(n int) error {
	return func(n int) error {
		if s := SquareSide(n); n < 1 || s*s != n {
			return fmt.Errorf("not the square of a power of two")
		}
		if n < min {
			return fmt.Errorf("below the minimum size %d", min)
		}
		return nil
	}
}

// SeededRandSeed is the canonical input seed of the built-in registry
// algorithms (the paper's IPDPS publication date).
const SeededRandSeed = 20070326

// SeededRand returns a deterministic RNG for registry-algorithm inputs.
// Using it (or any fixed seed) keeps a run a pure function of
// (n, record) — the property the shared trace store's (algorithm, n)
// keying relies on.
func SeededRand() *rand.Rand { return rand.New(rand.NewSource(SeededRandSeed)) }
