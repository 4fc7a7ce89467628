// Package core implements the specification model M(v) of the
// network-oblivious framework of Bilardi, Pietracaprina, Pucci, Scquizzato
// and Silvestri ("Network-Oblivious Algorithms", J.ACM 63(1), 2016;
// preliminary version in IPDPS 2007).
//
// An M(v) machine consists of v processing elements (virtual processors,
// VPs), each with unbounded local memory, communicating in labeled
// supersteps.  A VP executes ordinary Go code plus three primitives:
//
//   - Send(dst, payload): stage a constant-size message for VP dst;
//   - Receive() / Inbox(): read the messages delivered at the last barrier;
//   - Sync(i): barrier-synchronize the i-cluster (the v/2^i VPs whose
//     indices share the i most significant bits with the caller) and
//     deliver the messages staged during the superstep.
//
// A superstep terminated by Sync(i) is an i-superstep; during it a VP may
// only send messages to VPs in its own i-cluster.  The runtime enforces
// the two restrictions the paper places on the algorithm class:
//
//   - all VPs execute the same sequence of superstep labels (staticity of
//     the label trace), and
//   - every message stays inside the cluster of the terminating sync.
//
// Violations abort the run with a descriptive error.
//
// While the algorithm runs, the machine records a Trace: for every
// superstep s and every folding of M(v) onto M(2^j) (the paper's mechanism
// for executing an algorithm on fewer processors, with VP blocks of size
// v/2^j mapped to each processor), the degree h_s(n, 2^j) of the h-relation
// the superstep induces.  All the metrics of the framework — communication
// complexity H(n,p,σ) on the evaluation model M(p,σ), communication time
// D(n,p,g,ℓ) on the execution model D-BSP(p,g,ℓ), wiseness α (Def. 3.2)
// and fullness γ (Def. 5.2) — are exact functions of the Trace and are
// computed by the companion packages internal/eval and internal/dbsp.
//
// # Execution engines
//
// How the v virtual processors are scheduled on the host is not part of
// the model.  Every run uses the BlockEngine unless Options.Engine names
// the reference; the equivalence tests hold the two to identical traces:
//
//   - GoroutineEngine — the reference: one goroutine per VP, parked on
//     per-cluster condition-variable barriers.  It runs a step-form
//     program as the Program that calls the step function and Syncs on
//     its label until it reports the end.  Sync parks the goroutine
//     on the barrier of its cluster, so different clusters may proceed
//     through their (identical) label sequences at different speeds,
//     exactly as the model allows.  Wakeups broadcast to whole clusters
//     and every barrier completion serializes on the trace mutex, so
//     scheduler churn dominates beyond a few thousand VPs.
//
//   - BlockEngine (the default) — W workers (a power of two, by default
//     the largest not exceeding GOMAXPROCS) each own a contiguous block
//     of v/W VPs, the same folding the paper uses to execute M(v) on a
//     p-processor machine.  A Program's VPs are coroutines (iter.Pull)
//     resumed by their worker through direct stack switches — no
//     scheduler, no locks — and recycled through a process-wide cache
//     across runs.  The cache keeps at most 2^14 idle coroutines and
//     stops the rest when a run ends: each parked coroutine is a
//     goroutine every GC cycle scans, and 2^14 VPs is the largest
//     machine the benchmark workloads run, so they reuse every
//     coroutine.  A step-form program (StepFunc, run by RunSteps) needs
//     no coroutine: the worker calls its step function once per VP per
//     superstep, and the function returns the label it would have
//     passed to Sync.  Algorithms whose superstep sequence is static
//     and whose VP state fits in a slice use it — Columnsort and the
//     bitonic network (internal/colsort); the recursive ones (stencil,
//     matrix multiplication, FFT) keep their Programs.  Workers meet at
//     sense-reversing tree barriers, and h-relation counters accumulate
//     in per-worker partitions merged once per superstep, keeping the
//     trace mutex off the hot path.  Messages take one of two paths.
//     When a superstep's label-clusters fit in a block (label >= log2 W,
//     every superstep at W = 1) no message leaves its worker, so each
//     worker delivers its block in one ascending pass straight into the
//     inboxes.  Otherwise messages route through per-worker
//     destination-bucketed outboxes (bulk appends, no per-message
//     locking), with a barrier between the send and receive halves.  All
//     clusters advance superstep-synchronously.
//
// A static algorithm's communication at a fixed input size is a pure
// function of that size, so its trace is keyed by (algorithm, n) alone —
// TraceKey carries no engine.  Memoizing runs is the job of the
// harness trace store (which keeps each key's FoldSummary) and the
// service's result cache above this package; every run through core
// executes the program.
//
// # Streaming traces
//
// Every run records through one pending window, which a superstep
// leaves, in order, once every VP has completed it: into the run's
// FoldSummary, and then, under Options.Sink, into the TraceSink.
// Nothing is retained, so the run's peak trace footprint is the largest
// superstep, not the total.  The returned Trace carries the summary
// (Trace.Summary).  The sink side of the pipeline:
//
//   - TraceSink implementations: DiscardSink (measurement), the codec
//     writers TraceJSONWriter and TraceBinaryWriter, TraceFileSink
//     (atomic tmp-and-rename JSON file output, discarding partial
//     output when the run fails, or in-place output to a named pipe or
//     device), cachesim.CurveSim, which simulates each step as it
//     arrives, and dbsp.AscendDescend, which runs the Section 5
//     protocol on each step;
//   - the binary format ("NOBTRC01") is the compact binary format,
//     storing each superstep's pairs as flat columns.
//     Both codecs are hand-written for their one schema, without
//     encoding/json, and both readers validate every step with the same
//     checks (validateStep); TraceJSONReader documents the JSON grammar
//     it accepts and what it rejects;
//   - TraceSource is the reading half — NewTraceSource
//     (format-sniffing stream reader), OpenTraceFile — over which the
//     single-pass consumers run: FoldSummary.Observe folds each
//     decoded step into a FoldSummary, the O(log²v) accumulator that
//     is the only derivation of S_i(n) and F_i(n,p) — H(n,p,σ),
//     wiseness, fullness and the D-BSP communication time (the eval
//     metrics, dbsp.CommTimeSummary) are computed from it alone, never
//     from the steps — and cachesim.CurveSim, itself a TraceSink,
//     steps the cache simulator over the same records;
//   - the run returns each superstep's pair chunks to an internal pool
//     once its sink's WriteStep returns, so a recorded run reaches a
//     steady state with near-zero pair allocation whatever the sink.
//
// Sinks see BeginTrace exactly once, WriteStep per superstep in order,
// and EndTrace exactly once with the run's error.  Every record is
// lent, Degree and Pairs included: it is valid only until the WriteStep
// that receives it returns, or until a TraceSource's next Next.  A
// consumer that keeps a record copies it.
//
// # Determinism guarantees
//
// Engines differ only in scheduling cost, never in observable semantics.
// For every valid program, on every engine, at every worker count:
//
//   - message delivery is deterministic — the messages a VP finds in its
//     inbox are ordered by (source VP, send order);
//   - the recorded supersteps are identical: Labels, Degrees at every
//     fold, and Messages match step for step, and StepRec.Pairs holds
//     the same multiset — on the BlockEngine, in the same order (source
//     VP, then send order), so its recorded bytes are stable;
//   - invalid programs (cluster-escaping messages, divergent label
//     sequences, uneven superstep counts, panics) are reported as errors
//     on every engine, never hangs — the engines may detect a violation
//     at different points, so only the error class is portable.
//
// The cross-engine equivalence and recorded-bytes tests (core and
// harness packages) enforce them on every algorithm in the repository.
//
// # Probe contract
//
// Options.Probe attaches an obs.Probe to a run; the engines report into
// it and `nobl prof` exports the result as a Chrome trace-event timeline.
// Every engine honours the same contract:
//
//   - Per-superstep spans.  Each executed superstep s emits exactly one
//     duration span named "superstep s" in category "engine", covering
//     the wall time from the completion of the previous superstep (or
//     the run start) to the barrier completing s, with args carrying the
//     sync label, the message total and fold_ops, the messages ×
//     fold-levels upper bound on degree-counter updates the step
//     induced.  TestProbeSpansPerSuperstep
//     enforces one span per superstep on every engine, with and
//     without a Sink.
//
//   - Barrier-wait visibility.  The BlockEngine additionally emits one
//     "barrier_wait_ns" counter sample per superstep with a series per
//     worker: the nanoseconds that worker spent inside the tree barrier
//     since the previous sample (worker 0's figure includes the barrier
//     actions it runs; a worker's wait at the sampling barrier itself is
//     attributed to the next sample).  The two delivery paths keep this
//     contract — still one span and one sample per superstep — but a
//     sample spans two barriers on a block-local superstep and three on
//     a routed one.
//
//   - The nil-probe guarantee.  A nil Probe (the zero Options) leaves
//     every hot path untouched beyond a pointer check: no allocation,
//     no clock read, no map construction.  TestNilProbeAllocParity
//     asserts allocation parity with an un-probed run.
//
// Custom engines are not possible (the Engine interface is sealed), so
// the contract doubles as the exhaustive list of span sources in core.
//
// # Enforced invariants (static analysis)
//
// The prose contracts above are machine-checked: internal/lint defines
// seven analyzers, cmd/noblint runs them over the module, and CI fails
// on any diagnostic.  The mapping from invariant to analyzer:
//
//	invariant                                          analyzer   annotation
//	-------------------------------------------------  ---------  ------------------
//	deterministic outputs (codec writers, Route*,       maporder   //nob:deterministic
//	  /metrics and Chrome-trace renderers, every
//	  registry algorithm's entry point) never
//	  iterate a map unsorted
//	every exported *obs.Probe method begins with a      nilprobe   //nob:nilsafe
//	  nil-receiver guard (the nil-probe guarantee)
//	engine superstep loops and job-queue workers        ctxflow    //nob:ctxloop
//	  consult the run context in every blocking loop
//	a WriteStep taking a StepRec keeps neither the      sinkown    (none: inferred
//	  lent record nor its Pairs or Degree: no store                 from signatures)
//	  to a field, index or package variable, no
//	  channel send, no go statement
//	alg.Register/MustRegister only called from init()   reginit    (none: inferred
//	  in register.go files                                          from call sites)
//	annotated hot paths stay allocation-free: no fmt,   hotalloc   //nob:hotpath
//	  interface boxing, escaping closures, or
//	  unhinted append growth in loops
//	every export of an internal/ package has a use in   deadexport //nob:testhook
//	  a non-test file of the module or of bench/
//
// Suppressions take the form `//nolint:<analyzer> // reason` on (or
// immediately above) the flagged line; see the README's "Static
// analysis" section and the package documentation of internal/lint.
package core
