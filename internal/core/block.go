package core

import (
	"fmt"
	"iter"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file implements the BlockEngine: W workers, each owning the
// contiguous block of v/W VPs [w·v/W, (w+1)·v/W), drive the machine
// through supersteps in lockstep.
//
// A superstep is one pass of the worker loop:
//
//	resume  — the worker advances each of its live VPs to its next Sync
//	          (or termination).  A Program's VPs are coroutines
//	          (iter.Pull), so a resume is a direct stack switch — no
//	          channels, no scheduler wakeup, no lock: the whole block is
//	          one logical thread and its VP state needs no
//	          synchronization.  A step-form program's resume is one call
//	          of its StepFunc per VP (resumeSteps), which returns the
//	          label in place of the Sync, with no coroutine or switch;
//	barrier — workers meet at a sense-reversing tree barrier; worker 0
//	          validates cluster completeness and the common label, and
//	          picks the delivery path;
//	deliver — one of two paths:
//	          local (label >= log2 W: every cluster lies inside one
//	          block) — each worker makes one ascending pass over its own
//	          block that checks confinement, counts both degree sides and
//	          appends every message straight to its destination's inbox;
//	          routed (label < log2 W: clusters span workers) —
//	          send:    each worker checks confinement, counts sender-side
//	                   degrees and buckets its VPs' outboxes by
//	                   destination worker;
//	          barrier: (so every bucket is complete before anyone drains
//	                   it)
//	          receive: each worker drains the buckets addressed to it in
//	                   source-worker order, counting receiver-side degrees
//	                   and bulk-appending to its VPs' inboxes;
//	barrier — worker 0 merges the per-worker partitions into one StepRec.
//
// A local superstep thus crosses two barriers and a routed one three.
// With W = 1 every superstep is local.
//
// Degree counters are partitioned so no two workers ever write the same
// word: at fold levels with 2^j >= W every fold block lies inside exactly
// one worker's VP range (W is a power of two), so a single global array
// per level has disjoint per-worker index ranges — the sender side is
// written by the source block's owner, the receiver side by the
// destination block's owner (the same worker on a local superstep, whose
// counted levels j > label >= log2 W are all fine).  At coarse levels
// (2^j < W) a fold block spans several workers, so each worker sums into
// a private shard and worker 0 adds the shards at the merge barrier.
// Message delivery needs no sort: workers scan their VPs in ascending
// order and buckets are drained in ascending source-worker order, so
// every inbox is built already sorted by (source, send order) exactly as
// the GoroutineEngine produces it.

const (
	vpParked uint8 = iota // yielded at a Sync, waiting for delivery
	vpFinished
)

// vpCoro is a reusable coroutine that executes one VP program per
// activation and parks between jobs.  Creating a coroutine is the
// dominant per-run cost of the BlockEngine (a fresh goroutine and stack
// per VP), so finished coroutines are recycled through a process-wide
// cache of at most maxPooledVPCoros: steady-state workloads — benchmark
// loops, experiment suites, servers running many machines — pay it only
// once.
//
// A coroutine is always in one of two parks: inside a job at a Sync
// yield (during a run), or at the between-jobs yield (idle, cacheable).
// Jobs recover their own panics, so a coroutine survives program
// failures and remains reusable.  next/stop may be called from any
// goroutine as long as calls are serialized, which the owning worker
// (during a run, and when it stops one the cache cannot keep) and the
// cache mutex (between runs) guarantee.
type vpCoro struct {
	next  func() (struct{}, bool)
	stop  func()
	owner vpOwner // with r, set by the owner before resuming
	r     int
}

// vpOwner runs VP r's program as a coroutine's job, suspending at each
// Sync through yield.  *blockRun[P] implements it, so installing a job
// is two stores rather than a closure per VP per run.
type vpOwner interface {
	runVP(r int, yield func(struct{}) bool)
}

func newVPCoro() *vpCoro {
	c := &vpCoro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		for {
			owner := c.owner
			if owner == nil {
				return
			}
			owner.runVP(c.r, yield)
			c.owner = nil
			if !yield(struct{}{}) {
				return // torn down while idle
			}
		}
	})
	return c
}

// coroCache is a LIFO free list of at most maxPooledVPCoros idle
// coroutines.  Parked goroutines are GC roots — a dropped-but-parked
// coroutine would leak its stack forever — so the cache never drops
// one: a put beyond the bound stops the excess, which unwinds and
// frees it.
type coroCache struct {
	mu   sync.Mutex
	free []*vpCoro
}

// maxPooledVPCoros bounds the idle coroutines kept for reuse.  Every
// parked coroutine is a goroutine whose stack each GC cycle scans, for
// as long as the process lives: with 2^16 cached a forced GC took 58 ms,
// with 2^14 20 ms (2-vCPU VM).  2^14 is the most idle coroutines any
// benchmark workload holds at once (fft at n = 2^14 is a machine of
// 2^14 VPs), so those reuse every coroutine; a larger machine creates
// and stops its excess on each run.
const maxPooledVPCoros = 1 << 14

var vpCoros coroCache

// take returns n ready coroutines, warm ones from the cache first and
// the rest created outside the lock.
func (cc *coroCache) take(n int) []*vpCoro {
	out := make([]*vpCoro, n)
	cc.mu.Lock()
	k := copy(out, cc.free[max(len(cc.free)-n, 0):])
	clear(cc.free[len(cc.free)-k:])
	cc.free = cc.free[:len(cc.free)-k]
	cc.mu.Unlock()
	for i := k; i < n; i++ {
		out[i] = newVPCoro()
	}
	return out
}

// put returns idle coroutines to the cache, keeping at most
// maxPooledVPCoros and stopping the rest outside the lock.
func (cc *coroCache) put(batch []*vpCoro) {
	cc.mu.Lock()
	k := min(len(batch), maxPooledVPCoros-len(cc.free))
	cc.free = append(cc.free, batch[:k]...)
	cc.mu.Unlock()
	stopAll(batch[k:])
}

// stopAll unwinds idle coroutines, freeing their goroutines and stacks.
func stopAll(doomed []*vpCoro) {
	for _, c := range doomed {
		c.stop()
	}
}

const (
	phaseLocal = iota // valid superstep within blocks: deliverLocal, merge
	phaseRoute        // valid superstep across blocks: send, receive, merge
	phaseDrain        // aborted: resume parked VPs so they unwind
	phaseDone         // all VPs finished (or fully drained): exit
)

// routedMsg is a staged message en route between workers.
type routedMsg[P any] struct {
	src, dst int32
	dummy    bool
	payload  P
}

// blockRun is the per-run state of the BlockEngine.
type blockRun[P any] struct {
	m    *machine[P]
	prog Program[P]
	step StepFunc[P] // non-nil for a step-form program, which runs without coroutines
	w    int         // worker count: power of two, <= v
	bs   int         // block size v/w

	coro    []*vpCoro             // per-VP coroutine, driven by the owning worker; nil in step form
	yieldFn []func(struct{}) bool // per-VP Sync suspension point; nil in step form
	state   []uint8               // vpParked/vpFinished
	label   []int32               // label of the Sync the VP is parked at

	bar *treeBarrier

	liveCount []int64 // per worker: parked VPs after the resume phase
	msgCount  []int64 // per worker: staged messages across parked VPs

	outBuckets [][][]routedMsg[P] // [srcWorker][dstWorker]

	sentG, recvG [][]int32        // [level][globalBlock]; nil at coarse levels
	sentL, recvL [][][]int32      // [worker][level][block]; nil at fine levels
	localMax     [][]int32        // [worker][level] partition maxima
	pairShard    []paddedPairList // per-worker recorded pairs; spliced at merge

	// waitNs accumulates, per worker, the nanoseconds spent inside
	// treeBarrier.arrive since the last mergeStep sample.  Allocated only
	// when Options.Probe is set; nil keeps the barrier path untouched.
	// Worker 0 reads and clears the counters inside the merge barrier
	// action, so ordering is provided by the barrier's atomics; a
	// worker's wait at the merge barrier itself lands in the next sample.
	waitNs []int64

	// Coordinator state, written by worker 0 inside a barrier and read by
	// every worker after its release.
	stepIdx   int
	stepLabel int
	stepMsgs  int64
	phase     int
}

// cacheLine is the unit of false sharing: a slot that one worker writes
// for every message must share no 64-byte line with another worker's,
// or the workers' writes contend for the line.
const cacheLine = 64

// paddedPairList is one worker's recorded-pair shard, followed by a
// cache line of padding: every recorded message's Append writes the
// list's length, and in a slice of shards the padding keeps each
// shard's list a full line from the next one's, whatever the alignment
// of the slice (the allocator promises none: a large object with
// pointers starts past an 8-byte header).
type paddedPairList struct {
	PairList
	_ [cacheLine]byte
}

// ownLines returns n zero elements with a cache line of unused space on
// each side in their allocation, so no other object, such as another
// worker's slots, shares a line with them.
func ownLines[T any](n int) []T {
	var zero T
	pad := (cacheLine + int(unsafe.Sizeof(zero)) - 1) / int(unsafe.Sizeof(zero))
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

// runBlockEngine executes prog, or the step-form program step when it is
// non-nil, on m with W block-scheduled workers.
func runBlockEngine[P any](m *machine[P], prog Program[P], step StepFunc[P], W int) {
	b := &blockRun[P]{m: m, prog: prog, step: step, w: W, bs: m.v / W}
	m.block = b
	if step == nil {
		b.coro = make([]*vpCoro, m.v)
		b.yieldFn = make([]func(struct{}) bool, m.v)
	}
	b.state = make([]uint8, m.v)
	b.label = make([]int32, m.v)
	b.bar = newTreeBarrier(W)
	b.liveCount = make([]int64, W)
	b.msgCount = make([]int64, W)
	b.outBuckets = make([][][]routedMsg[P], W)
	b.sentL = make([][][]int32, W)
	b.recvL = make([][][]int32, W)
	b.localMax = make([][]int32, W)
	for w := 0; w < W; w++ {
		b.outBuckets[w] = ownLines[[]routedMsg[P]](W)
		b.sentL[w] = make([][]int32, m.logV+1)
		b.recvL[w] = make([][]int32, m.logV+1)
		b.localMax[w] = make([]int32, m.logV+1)
	}
	b.sentG = make([][]int32, m.logV+1)
	b.recvG = make([][]int32, m.logV+1)
	for j := 1; j <= m.logV; j++ {
		nb := 1 << uint(j)
		if nb >= W {
			b.sentG[j] = make([]int32, nb)
			b.recvG[j] = make([]int32, nb)
		} else {
			for w := 0; w < W; w++ {
				b.sentL[w][j] = ownLines[int32](nb)
				b.recvL[w][j] = ownLines[int32](nb)
			}
		}
	}
	if m.opts.RecordMessages {
		b.pairShard = ownLines[paddedPairList](W)
	}
	if m.opts.Probe != nil {
		b.waitNs = make([]int64, W)
	}
	var wg sync.WaitGroup
	wg.Add(W)
	for w := 0; w < W; w++ {
		go func(w int) {
			defer wg.Done()
			b.worker(w)
		}(w)
	}
	wg.Wait()
}

// runVP is VP r's job on its coroutine: it runs the program, recovers
// its panics — so the coroutine stays reusable — and performs the
// end-of-program staged-message check.
func (b *blockRun[P]) runVP(r int, yield func(struct{}) bool) {
	m := b.m
	vp := &m.vps[r]
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(abortSentinel); !ok {
				m.fail(panicError(r, e))
			}
		}
		b.state[r] = vpFinished
		m.finished.Add(1)
	}()
	if m.aborted.Load() {
		return
	}
	b.yieldFn[r] = yield
	b.prog(vp)
	if len(vp.outbox) > 0 {
		m.fail(stagedError(r, len(vp.outbox)))
	}
}

// callStep runs VP r's step function for one superstep and reports
// whether the VP parked at a Sync (false: it terminated).  It makes the
// checks VP.Sync and runVP make on the coroutine path: a panic fails the
// run, and so does an out-of-range label or a termination with staged
// messages.
func (b *blockRun[P]) callStep(r int) (parked bool) {
	m := b.m
	vp := &m.vps[r]
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(abortSentinel); !ok {
				m.fail(panicError(r, e))
			}
			parked = false
		}
	}()
	label, more := b.step(vp)
	switch {
	case !more:
		if len(vp.outbox) > 0 {
			m.fail(stagedError(r, len(vp.outbox)))
		}
		return false
	case label < 0 || label >= m.labelBound:
		m.fail(labelRangeError(r, label, m.labelBound))
		return false
	}
	b.label[r] = int32(label)
	return true
}

// sync implements VP.Sync under the BlockEngine: publish the label and
// suspend the coroutine until the worker resumes it for the next
// superstep.  A false yield means the coroutine is being torn down.
func (b *blockRun[P]) sync(vp *VP[P], label int) {
	r := vp.id
	b.label[r] = int32(label)
	b.state[r] = vpParked
	if !b.yieldFn[r](struct{}{}) {
		panic(abortSentinel{})
	}
	if b.m.aborted.Load() {
		panic(abortSentinel{})
	}
}

// worker drives the VP block [w·bs, (w+1)·bs) through supersteps.
// Cancellation reaches the loop through coordinate (run by one worker
// per barrier generation), which checks the machine's context.
//
//nob:ctxloop
func (b *blockRun[P]) worker(w int) {
	lo, hi := w*b.bs, (w+1)*b.bs
	var idle []*vpCoro // finished coroutines, returned to the cache on exit
	if b.step == nil {
		batch := vpCoros.take(hi - lo)
		for i, c := range batch {
			c.owner, c.r = b, lo+i
			b.coro[lo+i] = c
		}
		idle = batch[:0]
	}
	for {
		// Resume phase: advance every live VP to its next yield point.
		// After an abort this same sweep drains: resumed VPs observe the
		// failure, unwind, and finish without parking.
		var live, msgs int64
		if b.step != nil {
			live, msgs = b.resumeSteps(lo, hi)
		} else {
			live, msgs, idle = b.resumeCoros(lo, hi, idle)
		}
		b.liveCount[w] = live
		b.msgCount[w] = msgs
		b.barArrive(w, b.coordinate)
		switch b.phase {
		case phaseDone:
			vpCoros.put(idle)
			return
		case phaseDrain:
			continue
		case phaseLocal:
			b.deliverLocal(w, lo, hi)
		case phaseRoute:
			b.sendPhase(w, lo, hi)
			b.barArrive(w, nil)
			b.recvPhase(w, lo, hi)
		}
		b.barArrive(w, b.mergeStep)
	}
}

// resumeCoros is the resume phase of a Program: it switches to each
// live VP's coroutine, which runs to its next Sync or to its end, and
// returns the parked VPs, their staged messages, and idle extended by
// the coroutines whose programs completed.
func (b *blockRun[P]) resumeCoros(lo, hi int, idle []*vpCoro) (live, msgs int64, _ []*vpCoro) {
	for r := lo; r < hi; r++ {
		if b.state[r] == vpFinished {
			continue
		}
		if _, ok := b.coro[r].next(); !ok || b.state[r] == vpFinished {
			// Program complete: recycle the coroutine, now parked
			// between jobs.  ok == false means the coroutine itself
			// exited (e.g. a Goexit in VP code) and is not reusable.
			if ok {
				idle = append(idle, b.coro[r])
			}
			b.state[r] = vpFinished
			b.coro[r] = nil
			b.yieldFn[r] = nil
			continue
		}
		live++
		msgs += int64(len(b.m.vps[r].outbox))
	}
	return live, msgs, idle
}

// resumeSteps is the resume phase of a step-form program: a plain call
// of the step function per live VP.  A returned label is the VP's Sync,
// so the VP's superstep count and read position advance as VP.Sync
// advances them.  After an abort it finishes every VP without calling
// it.
func (b *blockRun[P]) resumeSteps(lo, hi int) (live, msgs int64) {
	m := b.m
	for r := lo; r < hi; r++ {
		if b.state[r] == vpFinished {
			continue
		}
		if m.aborted.Load() || !b.callStep(r) {
			b.state[r] = vpFinished
			m.finished.Add(1)
			continue
		}
		vp := &m.vps[r]
		vp.step++
		vp.rpos = 0
		live++
		msgs += int64(len(vp.outbox))
	}
	return live, msgs
}

// barArrive is arrive plus per-worker wait accounting when a probe is
// attached.  For worker 0 the measured time includes the barrier action
// it runs; for the others it is pure wait.
func (b *blockRun[P]) barArrive(w int, action func()) {
	if b.waitNs == nil {
		b.bar.arrive(w, action)
		return
	}
	t0 := time.Now()
	b.bar.arrive(w, action)
	b.waitNs[w] += time.Since(t0).Nanoseconds()
}

// coordinate runs on worker 0 between the gather and release of the
// post-resume barrier: it validates that every parked cluster is complete
// and label-consistent and publishes the superstep's label, message total
// and delivery path — local when a label-cluster fits in one block — or
// flips the run into the drain phase on error.
func (b *blockRun[P]) coordinate() {
	m := b.m
	var live, msgs int64
	for w := 0; w < b.w; w++ {
		live += b.liveCount[w]
		msgs += b.msgCount[w]
	}
	if m.aborted.Load() {
		if live == 0 {
			b.phase = phaseDone
		} else {
			b.phase = phaseDrain
		}
		return
	}
	if live == 0 {
		b.phase = phaseDone
		return
	}
	if err := m.ctxErr(); err != nil {
		m.fail(err)
		b.phase = phaseDrain
		return
	}
	v := m.v
	label := -1
	for r := 0; r < v; {
		if b.state[r] == vpFinished {
			r++
			continue
		}
		l := int(b.label[r])
		size := v >> uint(l)
		first := r / size * size
		if first != r {
			// An earlier member of r's cluster finished or synchronized
			// elsewhere, so this cluster can never complete.
			m.fail(fmt.Errorf("core: superstep %d: VP %d reached Sync(%d) but its %d-cluster [%d, %d) did not synchronize together; the label sequence must be identical on every VP", b.stepIdx, r, l, l, first, first+size))
			b.phase = phaseDrain
			return
		}
		for s := r; s < r+size; s++ {
			if b.state[s] == vpFinished {
				m.fail(fmt.Errorf("core: deadlock: VP %d is blocked at a Sync(%d) barrier of superstep %d that VP %d already terminated before (mismatched superstep counts)", r, l, b.stepIdx, s))
				b.phase = phaseDrain
				return
			}
			if int(b.label[s]) != l {
				m.fail(fmt.Errorf("core: VPs of %d-cluster %d reached superstep %d with different sync labels (%d vs %d); the label sequence must be identical on every VP", l, r/size, b.stepIdx, l, b.label[s]))
				b.phase = phaseDrain
				return
			}
		}
		if label == -1 {
			label = l
		} else if label != l {
			m.fail(fmt.Errorf("core: superstep %d has mismatched sync labels %d and %d across clusters; network-oblivious algorithms must use the same label sequence on every VP", b.stepIdx, label, l))
			b.phase = phaseDrain
			return
		}
		r += size
	}
	b.stepLabel = label
	b.stepMsgs = msgs
	if v>>uint(label) <= b.bs {
		b.phase = phaseLocal
	} else {
		b.phase = phaseRoute
	}
}

// partition returns the index range of worker w in the global counter
// array of a fine fold level j (2^j >= W blocks).
func (b *blockRun[P]) partition(w, j int) (int, int) {
	per := (1 << uint(j)) / b.w
	return w * per, (w + 1) * per
}

// deliverLocal delivers a superstep whose clusters each lie inside one
// block, so no message leaves its sender's worker: one ascending pass
// over the block checks confinement, counts both sides of the h-relation
// into the worker's partition of every counted level (all fine, since
// label >= log2 W), and appends each message straight to its
// destination's inbox — the work of send and receive minus the bucket
// hop and the barrier between them.
//
//nob:hotpath
func (b *blockRun[P]) deliverLocal(w, lo, hi int) {
	m := b.m
	for r := lo; r < hi; r++ {
		if b.state[r] == vpParked {
			m.vps[r].inbox = m.vps[r].inbox[:0]
		}
	}
	if b.stepMsgs == 0 {
		return
	}
	label, logV := b.stepLabel, m.logV
	for j := label + 1; j <= logV; j++ {
		plo, phi := b.partition(w, j)
		clear(b.sentG[j][plo:phi])
		clear(b.recvG[j][plo:phi])
	}
	size := m.v >> uint(label)
	for r := lo; r < hi; r++ {
		vp := &m.vps[r]
		if b.state[r] != vpParked || len(vp.outbox) == 0 {
			continue
		}
		first := r / size * size
		for _, msg := range vp.outbox {
			if msg.dst < first || msg.dst >= first+size {
				m.fail(confinementError(b.stepIdx, r, msg.dst, label, first, size))
				return
			}
			for j := logV; j > label; j-- {
				sb := r >> uint(logV-j)
				db := msg.dst >> uint(logV-j)
				if sb == db {
					break // equal here implies equal at every coarser fold
				}
				b.sentG[j][sb]++
				b.recvG[j][db]++
			}
			if b.pairShard != nil {
				b.pairShard[w].Append(int32(r), int32(msg.dst))
			}
			if !msg.dummy {
				dst := &m.vps[msg.dst]
				dst.inbox = append(dst.inbox, Message[P]{Src: r, Dst: msg.dst, Payload: msg.payload})
			}
		}
		vp.outbox = vp.outbox[:0]
	}
	b.partitionMax(w, label)
}

// partitionMax records, for every fine level counted in this superstep,
// the largest degree in worker w's partition of the global counters.
func (b *blockRun[P]) partitionMax(w, label int) {
	for j := label + 1; j <= b.m.logV; j++ {
		sg := b.sentG[j]
		if sg == nil {
			continue
		}
		rg := b.recvG[j]
		plo, phi := b.partition(w, j)
		var mx int32
		for i := plo; i < phi; i++ {
			if sg[i] > mx {
				mx = sg[i]
			}
			if rg[i] > mx {
				mx = rg[i]
			}
		}
		b.localMax[w][j] = mx
	}
}

// sendPhase is the first half of a routed superstep: it checks cluster
// confinement, accumulates the sender side of the h-relation counters
// and buckets the worker's staged messages by destination worker.
//
//nob:hotpath
func (b *blockRun[P]) sendPhase(w, lo, hi int) {
	m := b.m
	label, logV := b.stepLabel, m.logV
	if b.stepMsgs > 0 {
		for j := label + 1; j <= logV; j++ {
			if sg := b.sentG[j]; sg != nil {
				plo, phi := b.partition(w, j)
				clear(sg[plo:phi])
				clear(b.recvG[j][plo:phi])
			} else {
				clear(b.sentL[w][j])
				clear(b.recvL[w][j])
			}
			b.localMax[w][j] = 0
		}
	}
	size := m.v >> uint(label)
	for r := lo; r < hi; r++ {
		vp := &m.vps[r]
		if b.state[r] != vpParked || len(vp.outbox) == 0 {
			continue
		}
		first := r / size * size
		for _, msg := range vp.outbox {
			if msg.dst < first || msg.dst >= first+size {
				m.fail(confinementError(b.stepIdx, r, msg.dst, label, first, size))
				return
			}
			for j := logV; j > label; j-- {
				sb := r >> uint(logV-j)
				db := msg.dst >> uint(logV-j)
				if sb == db {
					break // equal here implies equal at every coarser fold
				}
				if sg := b.sentG[j]; sg != nil {
					sg[sb]++
				} else {
					b.sentL[w][j][sb]++
				}
			}
			if b.pairShard != nil {
				b.pairShard[w].Append(int32(r), int32(msg.dst))
			}
			dw := msg.dst / b.bs
			b.outBuckets[w][dw] = append(b.outBuckets[w][dw], routedMsg[P]{src: int32(r), dst: int32(msg.dst), dummy: msg.dummy, payload: msg.payload})
		}
		vp.outbox = vp.outbox[:0]
	}
}

// recvPhase is the second half of a routed superstep: it resets the
// inboxes of the worker's parked VPs (BSP discard semantics), drains the
// buckets addressed to this worker in ascending source-worker order —
// preserving the (source, send order) inbox invariant without a sort —
// and accumulates the receiver side of the h-relation counters plus the
// worker's partition maxima.
//
//nob:hotpath
func (b *blockRun[P]) recvPhase(w, lo, hi int) {
	m := b.m
	for r := lo; r < hi; r++ {
		if b.state[r] == vpParked {
			vp := &m.vps[r]
			vp.inbox = vp.inbox[:0]
		}
	}
	if b.stepMsgs == 0 {
		return
	}
	label, logV := b.stepLabel, m.logV
	for src := 0; src < b.w; src++ {
		bucket := b.outBuckets[src][w]
		for i := range bucket {
			msg := &bucket[i]
			for j := logV; j > label; j-- {
				sb := int(msg.src) >> uint(logV-j)
				db := int(msg.dst) >> uint(logV-j)
				if sb == db {
					break
				}
				if rg := b.recvG[j]; rg != nil {
					rg[db]++
				} else {
					b.recvL[w][j][db]++
				}
			}
			if !msg.dummy {
				dst := &m.vps[msg.dst]
				dst.inbox = append(dst.inbox, Message[P]{Src: int(msg.src), Dst: int(msg.dst), Payload: msg.payload})
			}
		}
		b.outBuckets[src][w] = bucket[:0]
	}
	b.partitionMax(w, label)
}

// mergeStep runs on worker 0 at the end-of-superstep barrier: it reduces
// the per-worker partitions into the superstep's StepRec — the only place
// the BlockEngine touches the Trace, once per superstep.
func (b *blockRun[P]) mergeStep() {
	m := b.m
	if m.aborted.Load() {
		return // the run is unwinding; the trace will be discarded
	}
	label, logV := b.stepLabel, m.logV
	nLevels := logV - label
	levelMax := make([]int64, nLevels)
	var pairs *PairList
	if b.stepMsgs > 0 {
		for j := label + 1; j <= logV; j++ {
			var mx int32
			if b.sentG[j] != nil {
				for w := 0; w < b.w; w++ {
					if b.localMax[w][j] > mx {
						mx = b.localMax[w][j]
					}
				}
			} else {
				nb := 1 << uint(j)
				for blk := 0; blk < nb; blk++ {
					var s, rc int32
					for w := 0; w < b.w; w++ {
						s += b.sentL[w][j][blk]
						rc += b.recvL[w][j][blk]
					}
					if s > mx {
						mx = s
					}
					if rc > mx {
						mx = rc
					}
				}
			}
			levelMax[j-label-1] = int64(mx)
		}
		if b.pairShard != nil {
			// Shard chunks move into the trace by ownership transfer; the
			// shards come back empty for the next superstep.
			pairs = &PairList{}
			for w := 0; w < b.w; w++ {
				pairs.Splice(&b.pairShard[w].PairList)
			}
		}
	}
	if err := m.trace.merge(b.stepIdx, label, levelMax, b.stepMsgs, pairs, m.v); err != nil {
		m.fail(err)
		return
	}
	if prb := m.opts.Probe; prb != nil {
		vals := make(map[string]any, b.w)
		for w := 0; w < b.w; w++ {
			vals["w"+strconv.Itoa(w)] = b.waitNs[w]
			b.waitNs[w] = 0
		}
		prb.Counter("engine", "barrier_wait_ns", 0, vals)
	}
	b.stepIdx++
}

// treeBarrier is a sense-reversing tree barrier over W workers (MCS
// style): worker w's node has children 2w+1 and 2w+2; a worker gathers
// its children's arrival flags, flips its slot in its parent's node, and
// waits for the release sense to propagate back down.  Worker 0 is the
// root and runs the barrier action, if any, between the last arrival and
// the release.  All flags are sense-reversed epochs, so no state is ever
// reset between rounds.  Waiters yield the processor between polls: while
// a barrier is pending every VP goroutine is blocked on its handoff
// channel, so only the W workers (W <= GOMAXPROCS by default) compete
// for it.
type treeBarrier struct {
	nodes []tbNode
}

type tbNode struct {
	arrived [2]atomic.Uint32 // flipped by each child on arrival
	release atomic.Uint32    // flipped by the parent on release
	sense   uint32           // owner-local: epoch of the next round
	_       [48]byte         // pad to 64 bytes: one node per cache line
}

func newTreeBarrier(w int) *treeBarrier {
	tb := &treeBarrier{nodes: make([]tbNode, w)}
	for i := range tb.nodes {
		tb.nodes[i].sense = 1
	}
	return tb
}

// arrive blocks until all workers have arrived.  action, if non-nil, is
// executed by worker 0 after every worker has arrived and before any is
// released.
func (tb *treeBarrier) arrive(w int, action func()) {
	n := &tb.nodes[w]
	next := n.sense
	for c := 0; c < 2; c++ {
		if 2*w+1+c < len(tb.nodes) {
			for n.arrived[c].Load() != next {
				runtime.Gosched()
			}
		}
	}
	if w == 0 {
		if action != nil {
			action()
		}
	} else {
		parent := &tb.nodes[(w-1)/2]
		parent.arrived[(w-1)%2].Store(next)
		for n.release.Load() != next {
			runtime.Gosched()
		}
	}
	for c := 0; c < 2; c++ {
		if child := 2*w + 1 + c; child < len(tb.nodes) {
			tb.nodes[child].release.Store(next)
		}
	}
	n.sense = next + 1
}
