// Package netoblivious is a Go implementation of the network-oblivious
// algorithms framework of Bilardi, Pietracaprina, Pucci, Scquizzato and
// Silvestri ("Network-Oblivious Algorithms", IPDPS 2007; J.ACM 63(1),
// 2016).
//
// A network-oblivious algorithm is written once, against a machine whose
// only parameter is the input size — the specification model M(v(n)) —
// and then runs unchanged, yet efficiently, on machines with any number
// of processors and any bandwidth/latency structure.  The framework's
// three models and every metric in the paper are implemented executably:
//
//   - internal/core — the specification model M(v): a superstep runtime
//     with labeled hierarchical barriers, exact communication-trace
//     recording at every folding, run by a sharded block-scheduled
//     engine that is held trace-identical to a goroutine-per-VP
//     reference engine and is orders of magnitude cheaper at large v
//     (see Engine);
//   - internal/eval — the evaluation model M(p, σ): communication
//     complexity H(n,p,σ) (Eq. 1), wiseness α (Def. 3.2), fullness γ
//     (Def. 5.2), the Lemma 3.1 folding inequality;
//   - internal/dbsp — the execution model D-BSP(p, g, ℓ): communication
//     time (Eq. 2), network parameter presets, the Section 5
//     ascend–descend protocol;
//   - internal/theory — lower bounds, the optimality theorem (Thm 3.4)
//     machinery and the broadcast impossibility bound (Thm 4.16);
//   - algorithm packages: matmul, fft, colsort, stencil, broadcast,
//     prefix — the paper's Section 4 algorithms, executed for real and
//     verified against sequential references;
//   - internal/harness + cmd/nobl — the experiment suite regenerating
//     every theorem's bound as a measured table (see EXPERIMENTS.md);
//   - internal/service + cmd/nobld — a long-running HTTP analysis
//     service: closed-form answers synchronously, simulation-backed
//     answers through a priority job queue with bounded workers, SSE
//     progress, per-job cancellation (RunOptions.Context reaches
//     superstep granularity) and process-lifetime LRU
//     caches with single-flight dedup.  `nobl remote` targets a shared
//     daemon from the CLI.
//
// The public algorithm API lives in the netoblivious/alg subpackage: a
// unified run configuration (alg.Spec), a typed Algorithm descriptor
// (name, docs, size constraint, default sizes, run entry point) and an
// open registry (alg.Register / alg.ByName / alg.All) that the built-in
// paper algorithms self-register into.  A user-defined algorithm
// registered there flows through every surface — the trace store, the
// experiment harness, `nobl trace`, `nobl algorithms`, and the nobld
// service — with no change to any of them.  See examples/custom-algorithm
// for a complete walkthrough.
//
// This root package re-exports the types a downstream user needs to write
// and analyze their own network-oblivious algorithms without importing
// internal paths directly in examples or docs.  See examples/quickstart
// for a tour.
package netoblivious

import (
	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"

	// Register the paper's built-in algorithms so alg.All() is fully
	// populated for any importer of this package.
	_ "netoblivious/internal/broadcast"
	_ "netoblivious/internal/colsort"
	_ "netoblivious/internal/fft"
	_ "netoblivious/internal/matmul"
	_ "netoblivious/internal/prefix"
	_ "netoblivious/internal/stencil"
)

// VP is a virtual processor handle of the specification model M(v).
type VP[P any] = core.VP[P]

// Message is a delivered message.
type Message[P any] = core.Message[P]

// Program is the code run by every virtual processor.
type Program[P any] = core.Program[P]

// Trace is the communication record of a run, sufficient to evaluate the
// algorithm on every folding, every σ, and every D-BSP machine.
type Trace = core.Trace

// StepRec is the record of one superstep a run lends to its sink: the
// sync label, the folded degrees, the message count and, when the run
// records messages, the (src, dst) pairs.
type StepRec = core.StepRec

// TraceSink receives a run's supersteps as they complete (set it as
// RunOptions.Sink or Spec.Sink).  A run keeps no step list of its own:
// a sink is the only way to see the recorded pairs.  Each record,
// pairs included, is lent: it is valid only until WriteStep returns, so
// a sink that keeps one copies it.
type TraceSink = core.TraceSink

// RunOptions configures a specification-model run: message recording
// into a sink (RunOptions.RecordMessages with RunOptions.Sink), the
// execution engine (RunOptions.Engine, nil for the default) and an
// optional cancellation context (RunOptions.Context) that aborts the run
// at the next superstep boundary.
type RunOptions = core.Options

// Engine selects how M(v) is executed on the host.  Engines change only
// scheduling cost, never semantics: every engine produces the identical
// Trace for a valid program, a property enforced by the repository's
// cross-engine equivalence tests.  That is why no memo key names an
// engine: TraceKey, the trace store, the nobld result cache and cluster
// placement all key a trace by (algorithm, n) alone.
//
// There is nothing to select: every run, binary and service uses the
// BlockEngine, which runs a worker per core and scales to millions of
// VPs.  The GoroutineEngine is the literal rendering of the model (one
// goroutine per VP, per-cluster barriers); tests set RunOptions.Engine
// to it as the semantic oracle the BlockEngine is compared against.
type Engine = core.Engine

// GoroutineEngine is the reference engine: one goroutine per virtual
// processor.
type GoroutineEngine = core.GoroutineEngine

// BlockEngine is the production engine: contiguous VP blocks driven by a
// worker pool through tree barriers.  Each worker delivers a superstep
// confined to blocks in one pass over its own block, and routes one whose
// clusters span workers through destination buckets.
type BlockEngine = core.BlockEngine

// Algorithm is a typed descriptor of one runnable network-oblivious
// algorithm: metadata (name, docs, size constraint, default sizes) plus
// the executable Run entry point.  See the netoblivious/alg package.
type Algorithm = alg.Algorithm

// Spec is the unified run configuration every algorithm entry point
// accepts: execution engine, message recording, wiseness dummies and
// cancellation context.
type Spec = alg.Spec

// AlgResult is what running a registered algorithm yields: the trace
// plus optional run metadata.
type AlgResult = alg.Result

// SizeError is the typed error a size-constraint violation produces; it
// carries the algorithm's size doc for every surface to render.
type SizeError = alg.SizeError

// RegisterAlgorithm adds a user-defined algorithm to the open registry,
// making it traceable, analyzable and listable by every surface in the
// repository.
func RegisterAlgorithm(a Algorithm) error {
	//nolint:reginit // public API forwarder: external callers register from their own init functions
	return alg.Register(a)
}

// AlgorithmByName looks up a registered algorithm (map-backed).
func AlgorithmByName(name string) (Algorithm, bool) { return alg.ByName(name) }

// Algorithms returns every registered algorithm sorted by name; treat
// the slice as read-only.
func Algorithms() []Algorithm { return alg.All() }

// Folding is the (F_i, S_i) view of an algorithm folded on p processors.
type Folding = eval.Folding

// DBSP is a D-BSP(p, g, ℓ) parameter assignment.
type DBSP = dbsp.Params

// Run executes prog on M(v) and records its communication trace.
func Run[P any](v int, prog Program[P]) (*Trace, error) {
	return core.Run(v, prog)
}

// RunOpt is Run with options.  It rejects RecordMessages without a
// Sink: a run keeps no superstep records, only its fold summary.
func RunOpt[P any](v int, prog Program[P], opts RunOptions) (*Trace, error) {
	return core.RunOpt(v, prog, opts)
}

// WisenessDummies applies the paper's dummy-message trick to the current
// superstep (Section 4.1), making algorithms (Θ(1), v)-wise.
func WisenessDummies[P any](vp *VP[P], label, count int) {
	core.WisenessDummies(vp, label, count)
}

// The metrics below read the fold summary the run built as each
// superstep completed (Trace.Summary), so they cost O(log²v) however
// many messages the run exchanged.

// Fold computes the folding of a trace onto p processors.
func Fold(tr *Trace, p int) Folding { return eval.Fold(tr.Summary(), p) }

// H returns the communication complexity H(n, p, σ) on the evaluation
// model M(p, σ) (Equation 1 of the paper).
func H(tr *Trace, p int, sigma float64) float64 { return eval.H(tr.Summary(), p, sigma) }

// Wiseness returns the measured wiseness α of Definition 3.2.
func Wiseness(tr *Trace, p int) float64 { return eval.Wiseness(tr.Summary(), p) }

// Fullness returns the measured fullness γ of Definition 5.2.
func Fullness(tr *Trace, p int) float64 { return eval.Fullness(tr.Summary(), p) }

// CommTime returns the communication time D(n, p, g, ℓ) on a D-BSP
// machine (Equation 2 of the paper).
func CommTime(tr *Trace, machine DBSP) float64 {
	return dbsp.CommTimeSummary(tr.Summary(), machine)
}

// Mesh returns D-BSP parameters modeling a d-dimensional mesh of p
// processors; Hypercube and FatTree model the other standard networks.
func Mesh(d, p int) DBSP { return dbsp.Mesh(d, p) }

// Hypercube returns D-BSP parameters modeling a binary hypercube.
func Hypercube(p int) DBSP { return dbsp.Hypercube(p) }

// FatTree returns D-BSP parameters modeling an area-universal fat-tree.
func FatTree(p int) DBSP { return dbsp.FatTree(p) }

// Uniform returns flat D-BSP parameters (a plain BSP machine).
func Uniform(p int, g, l float64) DBSP { return dbsp.Uniform(p, g, l) }
