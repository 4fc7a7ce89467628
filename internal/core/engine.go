package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
)

// Engine selects the execution strategy used to run a program on M(v).
// The engine changes only *how* the v virtual processors are scheduled on
// the host; the model semantics — superstep structure, message delivery
// order, the recorded Trace — are engine-independent, and the test suite
// asserts trace-for-trace equivalence between all engines.
//
// The interface is sealed: the machine internals are generic and
// unexported, so implementations live in this package.  Use EngineByName
// to resolve a user-facing name (e.g. a CLI flag) to an Engine.
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
// churn dominates at large v.  Prefer it for debugging and as the
// semantic oracle.
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

// engineFactories is the registry of selectable engines: name → fresh
// default-configured instance.  EngineByName, EngineNames and Engines all
// derive from it, so adding an engine here updates every user-facing
// enumeration (CLI flag docs, usage text, service error bodies) at once.
var engineFactories = map[string]func() Engine{
	GoroutineEngine{}.Name(): func() Engine { return GoroutineEngine{} },
	BlockEngine{}.Name():     func() Engine { return BlockEngine{} },
}

// EngineByName resolves an engine name, as accepted on command lines
// ("goroutine", "block"), to a default-configured Engine.  The
// error enumerates every registered name.
func EngineByName(name string) (Engine, error) {
	if f, ok := engineFactories[name]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("core: unknown engine %q (have %s)", name, strings.Join(EngineNames(), ", "))
}

// EngineNames lists the selectable engine names, sorted.
func EngineNames() []string {
	names := make([]string, 0, len(engineFactories))
	for n := range engineFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Engines returns one default-configured instance of every selectable
// engine, sorted by name — the listing surfaces (nobl, the service's
// /v1/algorithms) render engine tables from it.
func Engines() []Engine {
	names := EngineNames()
	out := make([]Engine, len(names))
	for i, n := range names {
		out[i] = engineFactories[n]()
	}
	return out
}

// engineBox wraps an Engine so atomic.Value always stores one concrete
// type regardless of which engine is selected.
type engineBox struct{ e Engine }

// defaultEngine holds the Engine used when Options.Engine is nil.
var defaultEngine atomic.Value

func init() { defaultEngine.Store(engineBox{BlockEngine{}}) }

// DefaultEngine returns the engine used by Run and by RunOpt when
// Options.Engine is nil.  It is the BlockEngine unless overridden with
// SetDefaultEngine.
func DefaultEngine() Engine { return defaultEngine.Load().(engineBox).e }

// SetDefaultEngine changes the process-wide default engine and returns
// the previous one.  It is safe for concurrent use; runs already in
// flight are unaffected.
func SetDefaultEngine(e Engine) Engine {
	if e == nil {
		panic("core: SetDefaultEngine(nil)")
	}
	return defaultEngine.Swap(engineBox{e}).(engineBox).e
}
