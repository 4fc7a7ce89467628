package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"netoblivious/internal/obs"
)

// Message is a delivered message as seen by the receiving VP.
type Message[P any] struct {
	Src, Dst int
	Payload  P
}

// staged is a message waiting in a VP's outbox for the next barrier.
type staged[P any] struct {
	dst     int
	payload P
	dummy   bool
}

// Options configures a run of an algorithm on M(v).
type Options struct {
	// RecordMessages stores the (src, dst) pair of every message in the
	// Trace.  It is required by the executable ascend–descend protocol
	// and by debugging tools, and costs memory proportional to the total
	// message count.
	RecordMessages bool

	// Engine selects the execution engine.  nil uses BlockEngine{}; tests
	// pass GoroutineEngine{} to run the reference.  Every engine produces
	// the same Trace for valid programs.
	Engine Engine

	// Context cancels the run: once it is done, the machine aborts at the
	// next superstep boundary and Run returns an error wrapping
	// Context.Err() (test with errors.Is).  The check sits on the
	// once-per-superstep coordination path of both engines, so
	// cancellation costs nothing on the per-VP hot path and a cancelled
	// request stops burning CPU within one superstep.  nil disables
	// cancellation.
	Context context.Context

	// Sink streams the trace instead of accumulating it: every completed
	// superstep record is handed to the sink at the barrier completing
	// it, and RunOpt returns a metadata-only Trace (dimensions plus
	// NumSupersteps/TotalMessages counters, empty Steps).  With a
	// file-backed sink a run's peak memory is O(largest superstep)
	// rather than O(total messages), which is what lets `nobl trace`
	// record sizes whose full Trace would not fit in RAM.  nil keeps the
	// classic accumulate-in-memory behaviour.
	Sink TraceSink

	// Probe records per-superstep spans and engine events for timeline
	// export (see the probe contract in the package documentation).  nil
	// — the default — disables instrumentation entirely; the nil path
	// costs one pointer check per superstep and is tested to allocate
	// exactly like an un-instrumented run.
	Probe *obs.Probe
}

// Program is the code executed by every virtual processor of M(v).  The
// same function runs on all VPs; behaviour is differentiated through
// VP.ID().  Per the paper's restrictions, every VP must execute the same
// sequence of Sync labels and must terminate immediately after a Sync.
type Program[P any] func(vp *VP[P])

// abortSentinel is panicked by VP primitives to unwind a goroutine after
// the machine has failed.
type abortSentinel struct{}

// barrier synchronizes one cluster.  It is reused across supersteps via a
// generation counter.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
	gen   uint64
	step  int // superstep index of the current generation
}

type machine[P any] struct {
	v, logV    int
	labelBound int
	opts       Options
	trace      *Trace
	vps        []VP[P]      // contiguous: the VP hot loops walk them in order
	barriers   [][]*barrier // [label][cluster]; GoroutineEngine only
	block      *blockRun[P] // non-nil under BlockEngine

	failOnce sync.Once
	errMu    sync.Mutex
	err      error
	aborted  atomic.Bool
	parked   atomic.Int64
	finished atomic.Int64
}

// VP is the handle through which a program accesses its virtual processor:
// its identity, the communication primitives and the barrier.
type VP[P any] struct {
	id   int
	m    *machine[P]
	step int

	inbox  []Message[P]
	rpos   int
	outbox []staged[P]
}

// ID returns the index of this virtual processor, in [0, V()).
func (vp *VP[P]) ID() int { return vp.id }

// V returns the number of virtual processors of the machine.
func (vp *VP[P]) V() int { return vp.m.v }

// LogV returns log2(V()).
func (vp *VP[P]) LogV() int { return vp.m.logV }

// Superstep returns the index of the current superstep (the number of
// Syncs executed so far by this VP).
func (vp *VP[P]) Superstep() int { return vp.step }

// ClusterFirst returns the index of the first VP of this VP's
// label-cluster: the 2^label VPs sharing the label most significant bits.
func (vp *VP[P]) ClusterFirst(label int) int {
	size := vp.m.v >> uint(label)
	return vp.id / size * size
}

// ClusterSize returns the number of VPs in a label-cluster, v/2^label.
func (vp *VP[P]) ClusterSize(label int) int { return vp.m.v >> uint(label) }

// Send stages a message with the given payload for VP dst.  The message is
// delivered at the Sync terminating the current superstep; the terminating
// label i must satisfy the cluster rule (dst shares the i most significant
// bits with the sender), which the runtime checks at delivery time.
func (vp *VP[P]) Send(dst int, payload P) {
	if dst < 0 || dst >= vp.m.v {
		vp.m.fail(fmt.Errorf("core: VP %d: Send to out-of-range VP %d (v=%d)", vp.id, dst, vp.m.v))
		panic(abortSentinel{})
	}
	vp.outbox = append(vp.outbox, staged[P]{dst: dst, payload: payload})
}

// SendDummy stages a dummy message for VP dst.  Dummy messages are counted
// by every communication metric exactly like real messages — the paper uses
// them to make algorithms (Θ(1), p)-wise — but they are not delivered to
// the destination's inbox.
func (vp *VP[P]) SendDummy(dst int) {
	if dst < 0 || dst >= vp.m.v {
		vp.m.fail(fmt.Errorf("core: VP %d: SendDummy to out-of-range VP %d (v=%d)", vp.id, dst, vp.m.v))
		panic(abortSentinel{})
	}
	var zero P
	vp.outbox = append(vp.outbox, staged[P]{dst: dst, payload: zero, dummy: true})
}

// Receive returns (and consumes) the next message delivered at the
// preceding barrier, in deterministic (source, send-order) order.  The
// second result is false when no messages remain.
func (vp *VP[P]) Receive() (P, bool) {
	if vp.rpos >= len(vp.inbox) {
		var zero P
		return zero, false
	}
	msg := vp.inbox[vp.rpos]
	vp.rpos++
	return msg.Payload, true
}

// Inbox returns the messages delivered at the preceding barrier that have
// not yet been consumed by Receive.  The returned slice is valid until the
// next Sync.
func (vp *VP[P]) Inbox() []Message[P] { return vp.inbox[vp.rpos:] }

// Sync ends the current superstep with the given label: it barrier-
// synchronizes the VP's label-cluster and delivers the messages staged by
// the cluster's members during the superstep.  label must be in
// [0, max{1, log2 v}).
func (vp *VP[P]) Sync(label int) {
	m := vp.m
	if m.aborted.Load() {
		panic(abortSentinel{})
	}
	if label < 0 || label >= m.labelBound {
		m.fail(fmt.Errorf("core: VP %d: Sync label %d out of range [0, %d)", vp.id, label, m.labelBound))
		panic(abortSentinel{})
	}
	if m.block != nil {
		m.block.sync(vp, label)
	} else {
		vp.syncGoroutine(label)
	}
	vp.step++
	vp.rpos = 0
}

// syncGoroutine is the GoroutineEngine barrier: park on the cluster's
// condition variable; the last arriver delivers the cluster's messages.
// The last-arriver branch checks the run context before releasing the
// cluster, which is how cancellation reaches every parked VP.
//
//nob:ctxloop
func (vp *VP[P]) syncGoroutine(label int) {
	m := vp.m
	cluster := 0
	if label > 0 {
		cluster = vp.id >> uint(m.logV-label)
	}
	b := m.barriers[label][cluster]
	size := m.v >> uint(label)

	b.mu.Lock()
	if b.count == 0 {
		b.step = vp.step
	} else if b.step != vp.step {
		b.mu.Unlock()
		m.fail(fmt.Errorf("core: VPs of %d-cluster %d reached Sync at different supersteps (%d vs %d); the label sequence must be identical on every VP", label, cluster, b.step, vp.step))
		panic(abortSentinel{})
	}
	b.count++
	if b.count == size {
		// Last arriver: check for cancellation, deliver the cluster's
		// messages, advance the generation and release the waiters.
		err := m.ctxErr()
		if err == nil {
			err = m.deliver(label, cluster*size, size, vp.step)
		}
		if err != nil {
			b.mu.Unlock()
			m.fail(err)
			panic(abortSentinel{})
		}
		m.parked.Add(-int64(size - 1))
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
	} else {
		gen := b.gen
		m.parked.Add(1)
		m.checkDeadlock()
		//nolint:ctxflow // parked waiters cannot poll: the last arriver checks the context and broadcasts, flipping aborted
		for b.gen == gen && !m.aborted.Load() {
			b.cond.Wait()
		}
		b.mu.Unlock()
		if m.aborted.Load() {
			panic(abortSentinel{})
		}
	}
}

// deliver routes the messages staged by the VPs in [first, first+size),
// records the per-fold metrics of the superstep and fills the members'
// inboxes.  It runs under the cluster barrier's mutex, with every member
// but the caller parked.
func (m *machine[P]) deliver(label, first, size, step int) error {
	vps := m.vps[first : first+size]
	var total int64
	for i := range vps {
		total += int64(len(vps[i].outbox))
	}

	nLevels := m.logV - label // folds j in (label, logV]
	var sent, recv [][]int32
	var pairs *PairList
	if total > 0 {
		sent = make([][]int32, nLevels)
		recv = make([][]int32, nLevels)
		for jj := 0; jj < nLevels; jj++ {
			blocks := 1 << uint(jj+1)
			if blocks > size {
				blocks = size
			}
			sent[jj] = make([]int32, blocks)
			recv[jj] = make([]int32, blocks)
		}
		if m.opts.RecordMessages {
			pairs = NewPairList(int(total))
		}
	}

	for w := first; w < first+size; w++ {
		src := &m.vps[w]
		if len(src.outbox) == 0 {
			continue
		}
		for _, msg := range src.outbox {
			if msg.dst < first || msg.dst >= first+size {
				return fmt.Errorf("core: superstep %d: VP %d sent a message to VP %d outside its %d-cluster [%d, %d); messages of an i-superstep must stay within i-clusters",
					step, w, msg.dst, label, first, first+size)
			}
			for j := m.logV; j > label; j-- {
				sb := w >> uint(m.logV-j)
				db := msg.dst >> uint(m.logV-j)
				if sb == db {
					break // equal here implies equal at every coarser fold
				}
				jj := j - label - 1
				base := first >> uint(m.logV-j)
				sent[jj][sb-base]++
				recv[jj][db-base]++
			}
			if pairs != nil {
				pairs.Append(int32(w), int32(msg.dst))
			}
		}
	}
	// Second pass: deliver in ascending source order so every inbox ends
	// up sorted by (src, send-order) without an explicit sort.
	if total > 0 {
		for w := first; w < first+size; w++ {
			// Reset the inbox of every member: messages not consumed in
			// the superstep following their delivery are discarded, per
			// the BSP semantics of the model.
			m.vps[w].inbox = m.vps[w].inbox[:0]
		}
		for w := first; w < first+size; w++ {
			src := &m.vps[w]
			for _, msg := range src.outbox {
				if !msg.dummy {
					dst := &m.vps[msg.dst]
					dst.inbox = append(dst.inbox, Message[P]{Src: w, Dst: msg.dst, Payload: msg.payload})
				}
			}
			src.outbox = src.outbox[:0]
		}
	} else {
		for i := range vps {
			vps[i].inbox = vps[i].inbox[:0]
		}
	}

	levelMax := make([]int64, nLevels)
	if total > 0 {
		for jj := 0; jj < nLevels; jj++ {
			var mx int32
			for b := range sent[jj] {
				if sent[jj][b] > mx {
					mx = sent[jj][b]
				}
				if recv[jj][b] > mx {
					mx = recv[jj][b]
				}
			}
			levelMax[jj] = int64(mx)
		}
	}
	return m.trace.merge(step, label, levelMax, total, pairs, size)
}

// ctxErr reports the run context's cancellation, wrapped so callers can
// errors.Is against context.Canceled/DeadlineExceeded; nil while the run
// may proceed.
func (m *machine[P]) ctxErr() error {
	if m.opts.Context == nil {
		return nil
	}
	if err := m.opts.Context.Err(); err != nil {
		return fmt.Errorf("core: run cancelled: %w", err)
	}
	return nil
}

func (m *machine[P]) fail(err error) {
	m.failOnce.Do(func() {
		m.errMu.Lock()
		m.err = err
		m.errMu.Unlock()
		m.aborted.Store(true)
		for _, lvl := range m.barriers {
			for _, b := range lvl {
				b.mu.Lock()
				b.cond.Broadcast()
				b.mu.Unlock()
			}
		}
	})
}

// checkDeadlock fails the machine when every unfinished VP is parked at a
// barrier: no arrival can ever complete a cluster, so the run cannot make
// progress.  This happens only for buggy programs (mismatched label
// sequences across clusters); detecting it turns a hang into an error.
// It must not be called while holding a barrier mutex by the goroutine
// that would perform the failing broadcast, hence the asynchronous fail.
func (m *machine[P]) checkDeadlock() {
	if m.aborted.Load() {
		return
	}
	fin := m.finished.Load()
	if m.parked.Load()+fin >= int64(m.v) && fin < int64(m.v) {
		go m.fail(fmt.Errorf("core: deadlock: every unfinished VP is blocked at a barrier (mismatched label sequences across clusters)"))
	}
}

func newMachine[P any](v int, opts Options) *machine[P] {
	logV := Log2(v)
	labelBound := logV
	if labelBound < 1 {
		labelBound = 1
	}
	m := &machine[P]{
		v:          v,
		logV:       logV,
		labelBound: labelBound,
		opts:       opts,
		trace:      newTrace(v, logV),
	}
	m.vps = make([]VP[P], v)
	for r := 0; r < v; r++ {
		m.vps[r] = VP[P]{id: r, m: m}
	}
	return m
}

// initBarriers allocates the per-cluster barrier tree used by the
// GoroutineEngine.  The BlockEngine synchronizes workers instead of VPs
// and never needs it.
func (m *machine[P]) initBarriers() {
	m.barriers = make([][]*barrier, m.labelBound)
	for i := 0; i < m.labelBound; i++ {
		n := 1 << uint(i)
		if n > m.v {
			n = m.v
		}
		m.barriers[i] = make([]*barrier, n)
		for c := range m.barriers[i] {
			b := &barrier{}
			b.cond = sync.NewCond(&b.mu)
			m.barriers[i][c] = b
		}
	}
}

// Run executes prog on a specification machine M(v) with v virtual
// processors (v must be a positive power of two) and returns the recorded
// communication Trace.  It returns an error if the program violates the
// model's restrictions (cluster-confined messages, identical label
// sequences, terminating Sync) or panics.  The program runs on the
// BlockEngine.
func Run[P any](v int, prog Program[P]) (*Trace, error) {
	return RunOpt(v, prog, Options{})
}

// RunOpt is Run with explicit Options.
func RunOpt[P any](v int, prog Program[P], opts Options) (*Trace, error) {
	if v < 1 || v&(v-1) != 0 {
		return nil, fmt.Errorf("core: v must be a positive power of two, got %d", v)
	}
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	eng := opts.Engine
	if eng == nil {
		eng = BlockEngine{}
	}
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, fmt.Errorf("core: run cancelled: %w", err)
		}
	}
	switch eng.(type) {
	case GoroutineEngine, *GoroutineEngine, BlockEngine, *BlockEngine:
	default:
		return nil, fmt.Errorf("core: unknown engine %q", eng.Name())
	}
	m := newMachine[P](v, opts)
	if opts.Probe != nil {
		m.trace.probe = opts.Probe
		m.trace.probeLast = time.Now()
	}
	if opts.Sink != nil {
		if err := opts.Sink.BeginTrace(v, m.logV); err != nil {
			return nil, fmt.Errorf("core: trace sink: %w", err)
		}
		m.trace.sink = opts.Sink
	}
	runErr := func() error {
		switch e := eng.(type) {
		case GoroutineEngine, *GoroutineEngine:
			m.runGoroutineEngine(prog)
		case BlockEngine:
			runBlockEngine(m, prog, e.workerCount(v))
		case *BlockEngine:
			runBlockEngine(m, prog, e.workerCount(v))
		}
		m.errMu.Lock()
		err := m.err
		m.errMu.Unlock()
		if err != nil {
			return err
		}
		// The label-sequence restriction also requires every VP to execute
		// the same number of supersteps.
		steps := m.vps[0].step
		for i := range m.vps {
			if m.vps[i].step != steps {
				return fmt.Errorf("core: VPs executed different numbers of supersteps (%d vs %d on VP %d)", steps, m.vps[i].step, m.vps[i].id)
			}
		}
		if got := m.trace.recordedSteps(); got != steps {
			return fmt.Errorf("core: internal error: %d supersteps executed but %d recorded", steps, got)
		}
		if pending := m.trace.pendingSteps(); pending != 0 {
			return fmt.Errorf("core: internal error: %d supersteps still pending after the run completed", pending)
		}
		return nil
	}()
	// The sink always sees its EndTrace — a failed or cancelled run is
	// how file sinks know to discard partial output.
	if opts.Sink != nil {
		if eerr := opts.Sink.EndTrace(runErr); eerr != nil && runErr == nil {
			runErr = fmt.Errorf("core: trace sink: %w", eerr)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	return m.trace, nil
}

// runGoroutineEngine spawns one goroutine per VP and waits for all of
// them; clusters self-synchronize on the barrier tree.
func (m *machine[P]) runGoroutineEngine(prog Program[P]) {
	m.initBarriers()
	var wg sync.WaitGroup
	wg.Add(m.v)
	for r := 0; r < m.v; r++ {
		go func(r int) {
			defer wg.Done()
			m.runVP(r, prog)
		}(r)
	}
	wg.Wait()
}

func (m *machine[P]) runVP(r int, prog Program[P]) {
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(abortSentinel); !ok {
				m.fail(fmt.Errorf("core: VP %d panicked: %v\n%s", r, e, debug.Stack()))
			}
		}
		m.finished.Add(1)
		m.checkDeadlock()
	}()
	vp := &m.vps[r]
	prog(vp)
	if len(vp.outbox) > 0 {
		m.fail(fmt.Errorf("core: VP %d terminated with %d staged messages; programs must end with a Sync", r, len(vp.outbox)))
	}
}
