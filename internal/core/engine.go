package core

import (
	"fmt"
	"runtime"
)

// Engine selects the execution strategy used to run a program on M(v).
// The engine changes only *how* the v virtual processors are scheduled on
// the host; the model semantics — superstep structure, message delivery
// order, the recorded Trace — are engine-independent, and the test suite
// asserts trace-for-trace equivalence between all engines.
//
// The interface is sealed: the machine internals are generic and
// unexported, so implementations live in this package.  Production runs
// use the BlockEngine (the nil Options.Engine); the GoroutineEngine is
// the reference the equivalence tests compare it against.
type Engine interface {
	// Name is the stable identifier of the engine ("goroutine", "block").
	Name() string

	// sealed marks the interface as implementable only inside core.
	sealed()
}

// GoroutineEngine is the reference engine: one goroutine per virtual
// processor, parked on per-cluster condition-variable barriers.  It is the
// most literal rendering of the model — every VP is an independent thread
// of control and clusters synchronizing at deep labels proceed fully
// independently — but wakeups broadcast to whole clusters and every
// barrier completion funnels through a global trace mutex, so scheduler
// churn dominates at large v.  It is the semantic oracle: tests select it
// through Options.Engine and compare its traces with the BlockEngine's.
type GoroutineEngine struct{}

// Name implements Engine.
func (GoroutineEngine) Name() string { return "goroutine" }

func (GoroutineEngine) sealed() {}

// BlockEngine is the scalable engine: W workers (W a power of two,
// clipped to v) each own a contiguous block of v/W VPs and drive them
// through supersteps in lockstep.  VPs live on coroutines (iter.Pull) —
// a Go function can only be suspended mid-call on its own stack — so a
// superstep resume is a direct stack switch with no scheduler wakeup,
// and idle coroutines are recycled across runs through a bounded
// process-wide cache; workers meet at a sense-reversing tree barrier
// once per superstep; messages travel through per-worker destination-bucketed
// outboxes (bulk appends, no per-message locking); and the h-relation
// counters are accumulated in per-worker partitions merged once per
// barrier, so the global trace mutex is off the hot path entirely.
//
// For valid programs the produced Trace is identical to GoroutineEngine's
// (the equivalence tests enforce this).  The only observable difference
// is pacing of invalid programs: the BlockEngine runs all clusters
// superstep-synchronously, so label-sequence violations are detected at
// the end of the offending superstep rather than through the deadlock
// detector; the same class of errors is reported either way.
type BlockEngine struct {
	// Workers is the number of workers to use.  0 means automatic: the
	// largest power of two not exceeding runtime.GOMAXPROCS(0).  Any
	// other value is rounded down to a power of two and clipped to
	// [1, v].
	Workers int
}

// Name implements Engine.
func (BlockEngine) Name() string { return "block" }

func (BlockEngine) sealed() {}

// workerCount resolves the effective worker count for a machine of v VPs.
func (e BlockEngine) workerCount(v int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = floorPow2(w)
	if w > v {
		w = v
	}
	if w < 1 {
		w = 1
	}
	return w
}

// floorPow2 returns the largest power of two <= n (1 for n <= 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// EngineByName resolves "goroutine" or "block" to a default-configured
// Engine.
func EngineByName(name string) (Engine, error) {
	switch name {
	case GoroutineEngine{}.Name():
		return GoroutineEngine{}, nil
	case BlockEngine{}.Name():
		return BlockEngine{}, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (have block, goroutine)", name)
}
