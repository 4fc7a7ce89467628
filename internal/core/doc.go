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
//     per-cluster condition-variable barriers.  Sync parks the goroutine
//     on the barrier of its cluster, so different clusters may proceed
//     through their (identical) label sequences at different speeds,
//     exactly as the model allows.  Wakeups broadcast to whole clusters
//     and every barrier completion serializes on the trace mutex, so
//     scheduler churn dominates beyond a few thousand VPs.
//
//   - BlockEngine (the default) — W workers (a power of two, by default
//     the largest not exceeding GOMAXPROCS) each own a contiguous block
//     of v/W VPs, the same folding the paper uses to execute M(v) on a
//     p-processor machine.  VPs are coroutines (iter.Pull) resumed by
//     their worker through direct stack switches — no scheduler, no
//     locks — and recycled through a process-wide cache across runs;
//     workers meet at a sense-reversing tree barrier once per superstep;
//     messages route through per-worker destination-bucketed outboxes
//     (bulk appends, no per-message locking); and h-relation counters
//     accumulate in per-worker partitions merged once per barrier,
//     keeping the trace mutex off the hot path.  All clusters advance
//     superstep-synchronously.
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
// By default a run accumulates its whole Trace in memory.  For input
// sizes whose trace exceeds RAM, Options.Sink streams it instead: every
// engine hands each completed StepRec to the TraceSink at the barrier
// that completes it and retains nothing, so the run's peak trace
// footprint is the largest superstep, not the total.  The sink side of
// the pipeline:
//
//   - TraceSink implementations: an accumulating *Trace (the in-memory
//     default expressed as a sink), DiscardSink (measurement), the
//     codec writers TraceJSONWriter and TraceBinaryWriter, and
//     TraceFileSink (atomic tmp-and-rename file output in either
//     format, discarding partial output when the run fails);
//   - the streamed JSON is byte-identical to Trace.EncodeJSON of the
//     same run, so stored traces are indistinguishable from in-memory
//     encodes; the binary format ("NOBTRC01") is the compact binary
//     format, storing each superstep's pairs as flat columns.
//     Both codecs are hand-written for their one schema, without
//     encoding/json, and both readers validate every step with the same
//     checks (validateStep); TraceJSONReader documents the JSON grammar
//     it accepts and what it rejects;
//   - TraceSource is the reading half — Trace.Source, NewTraceSource
//     (format-sniffing stream reader), OpenTraceFile — over which the
//     single-pass consumers run: Summarize (Trace.Summary for an
//     in-memory trace) folds a source into a FoldSummary, the O(log²v)
//     accumulator that is the only derivation of S_i(n) and F_i(n,p) —
//     H(n,p,σ), wiseness, fullness and the D-BSP communication time
//     (the eval metrics, dbsp.CommTimeSummary) are computed from it
//     alone, never from the steps — and the cache simulator's
//     single-pass sweep (cachesim.MissCurve) consumes records the same
//     way;
//   - released pair records recycle their chunk storage through an
//     internal pool, so a streaming recorded run reaches a steady state
//     with near-zero pair allocation.
//
// Sinks see BeginTrace exactly once, WriteStep per superstep in order,
// and EndTrace exactly once with the run's error — see the TraceSink
// contract for ownership rules.
//
// # Determinism guarantees
//
// Engines differ only in scheduling cost, never in observable semantics.
// For every valid program, on every engine, at every worker count:
//
//   - message delivery is deterministic — the messages a VP finds in its
//     inbox are ordered by (source VP, send order);
//   - the recorded Trace is identical: Steps, Labels, Degrees at every
//     fold, and Messages match entry for entry (StepRec.Pairs is
//     order-free on every engine; its multiset is identical);
//   - invalid programs (cluster-escaping messages, divergent label
//     sequences, uneven superstep counts, panics) are reported as errors
//     on every engine, never hangs — the engines may detect a violation
//     at different points, so only the error class is portable.
//
// The cross-engine equivalence tests (core and harness packages) enforce
// all three properties on every algorithm in the repository.
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
//     enforces one span per superstep on every engine, in both in-memory
//     and streaming (Sink) modes.
//
//   - Barrier-wait visibility.  The BlockEngine additionally emits one
//     "barrier_wait_ns" counter sample per superstep with a series per
//     worker: the nanoseconds that worker spent inside the tree barrier
//     since the previous sample (worker 0's figure includes the barrier
//     actions it runs; a worker's wait at the sampling barrier itself is
//     attributed to the next sample).
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
// six analyzers, cmd/noblint runs them over the module, and CI fails on
// any diagnostic.  The mapping from invariant to analyzer:
//
//	invariant                                          analyzer   annotation
//	-------------------------------------------------  ---------  ------------------
//	deterministic outputs (codec writers, Route*,       maporder   //nob:deterministic
//	  /metrics and Chrome-trace renderers) never
//	  iterate a map unsorted
//	every exported *obs.Probe method begins with a      nilprobe   //nob:nilsafe
//	  nil-receiver guard (the nil-probe guarantee)
//	engine superstep loops and job-queue workers        ctxflow    //nob:ctxloop
//	  consult the run context in every blocking loop
//	a StepRec handed to TraceSink.WriteStep is not      sinkown    (none: inferred
//	  reused by the caller (ownership transfer)                     from signatures)
//	alg.Register/MustRegister only called from init()   reginit    (none: inferred
//	  in register.go files                                          from call sites)
//	annotated hot paths stay allocation-free: no fmt,   hotalloc   //nob:hotpath
//	  interface boxing, escaping closures, or
//	  unhinted append growth in loops
//
// Suppressions take the form `//nolint:<analyzer> // reason` on (or
// immediately above) the flagged line; see the README's "Static
// analysis" section and the package documentation of internal/lint.
package core
