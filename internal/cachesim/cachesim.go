// Package cachesim explores the paper's Section 6 conjecture: "we
// conjecture that cache-oblivious algorithms can be obtained by simulating
// network-oblivious ones using a suitable adaptation of the technique
// developed in Pietracaprina et al. [2006]".
//
// It simulates the ideal cache model IC(M, B) of the cache-oblivious
// framework (fully associative, LRU, M words in lines of B words) under
// a sequential execution of a recorded M(v) trace VP by VP, superstep by
// superstep — the natural folding-to-one-processor schedule — touching
// each VP's context and writing each message into its destination's
// mailbox.  The cache-miss count of this simulation is the I/O
// complexity of the derived sequential algorithm.
//
// The measurable content of the conjecture (experiment E16): algorithms
// whose supersteps have fine labels (communication confined to small
// clusters) produce address streams with locality, so the derived
// sequential algorithm incurs few misses once a cluster's working set fits
// in M — e.g. the recursive FFT's simulation beats the iterative
// butterfly's over a wide band of cache sizes, mirroring exactly the
// cache-oblivious/cache-aware FFT gap.
package cachesim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"netoblivious/internal/core"
)

// ErrNoPairs reports a simulation request over a trace recorded without
// message pairs: there is no address stream to simulate.  Callers
// surface it with re-record guidance (`nobl stat -cache` tells the user
// to re-run `nobl trace -record`).
var ErrNoPairs = errors.New("cachesim: trace must be recorded with RecordMessages (message pairs are missing)")

// CurveSim simulates every cache size of a sweep in a single traversal
// of the address stream, exploiting the inclusion property of fully
// associative LRU (Mattson's stack algorithm): for a fixed line size, a
// cache of capacity C holds exactly the top C lines of one global LRU
// stack, so one stack plus one marker per capacity classifies every
// access for all sizes at once.  Each resident line carries its band —
// the index of the smallest cache in the sweep that still holds it —
// and markers are nudged in O(sizes) per access, turning the
// O(sizes × trace) per-size re-simulation into O(trace).
//
// The access model: in each superstep, VP w in ascending order touches
// its ctxWords-word context, then writes one word into the mailbox slot
// of the destination of every message it sends, in send order.  Each
// VP's region is its context followed by its mailbox slot, so locality
// of communication becomes locality of reference — the mechanism behind
// the Section 6 conjecture.
//
// The footprint of v·(ctxWords+1) words is known up front, so the stack
// is dense: prev, next and band arrays indexed by line, with band -1 for
// a line that is not resident.  Consecutive accesses to one line — most
// of a VP's context — collapse into one stack update: after an access
// the line is the stack head, whose band is 0, so the rest are band-0
// hits.  A superstep's pairs are grouped by source with a counting sort
// into reused arrays, which keeps each source's send order.
//
// The per-VP and per-line state is allocated on the first Step, so a
// trace without supersteps costs O(sizes) whatever its v.  Each Step
// makes O(v + pairs) stack updates and the state takes O(v) memory,
// because every superstep touches every VP's context.
type CurveSim struct {
	v        int
	ctxWords int
	region   int64 // words per VP: its context, then its mailbox slot
	bWords   int64
	lines    int   // footprint in lines
	sizes    []int // the sweep, in caller order
	caps     []int // strictly increasing unique line capacities
	capIdx   []int // sizes[i] -> index into caps

	// The LRU stack over line indices, allocated on the first Step.
	prev, next, band []int32
	head, tail       int32 // -1 while the stack is empty
	length           int
	markers          []int32 // markers[i]: line at stack position caps[i]; -1 while shorter

	offsets []int32 // offsets[w]: end of VP w's destinations in order
	order   []int32 // the current superstep's destinations, grouped by source

	hits     []int64 // hits[b]: accesses to lines resident with band b
	cold     int64   // accesses missing even the largest cache
	accesses int64
	steps    int
}

// NewCurveSim builds a single-pass simulator for a machine of v VPs
// over the given cache sizes (words); B is the line length in words and
// every size must be a positive multiple of it.  A run's BeginTrace
// re-sizes it, so a sink may be built before its machine is known.
func NewCurveSim(v, ctxWords, bWords int, sizes []int) (*CurveSim, error) {
	if ctxWords < 1 {
		return nil, fmt.Errorf("cachesim: ctxWords must be positive")
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("cachesim: empty cache-size sweep")
	}
	cs := &CurveSim{ctxWords: ctxWords, region: int64(ctxWords) + 1, bWords: int64(bWords),
		sizes: sizes, capIdx: make([]int, len(sizes)), head: -1, tail: -1}
	uniq := map[int]bool{}
	for _, m := range sizes {
		if m <= 0 || bWords <= 0 || m%bWords != 0 {
			return nil, fmt.Errorf("cachesim: invalid cache M=%d B=%d", m, bWords)
		}
		if c := m / bWords; !uniq[c] {
			uniq[c] = true
			cs.caps = append(cs.caps, c)
		}
	}
	sort.Ints(cs.caps)
	for i, m := range sizes {
		cs.capIdx[i] = sort.SearchInts(cs.caps, m/bWords)
	}
	if err := cs.BeginTrace(v, 0); err != nil {
		return nil, err
	}
	cs.markers = make([]int32, len(cs.caps))
	for i := range cs.markers {
		cs.markers[i] = -1
	}
	cs.hits = make([]int64, len(cs.caps))
	return cs, nil
}

// BeginTrace implements core.TraceSink: it sizes the simulator for a
// machine of v VPs (logV is not needed), which the first Step fixes.
func (cs *CurveSim) BeginTrace(v, logV int) error {
	if cs.band != nil {
		return fmt.Errorf("cachesim: BeginTrace after the first step")
	}
	if v < 1 {
		return fmt.Errorf("cachesim: invalid machine width v=%d", v)
	}
	// Lines are int32 indices.
	if cs.region > math.MaxInt64/int64(v) || (int64(v)*cs.region-1)/cs.bWords >= math.MaxInt32 {
		return fmt.Errorf("cachesim: footprint of v=%d VPs of %d words exceeds %d lines of %d words",
			v, cs.region, math.MaxInt32, cs.bWords)
	}
	cs.v = v
	cs.lines = int((cs.Words()-1)/cs.bWords + 1)
	return nil
}

// WriteStep implements core.TraceSink: it Steps the lent record.
func (cs *CurveSim) WriteStep(rec core.StepRec) error { return cs.Step(&rec) }

// EndTrace implements core.TraceSink.
func (cs *CurveSim) EndTrace(runErr error) error { return nil }

func (cs *CurveSim) pushFront(l int32) {
	cs.prev[l] = -1
	cs.next[l] = cs.head
	if cs.head >= 0 {
		cs.prev[cs.head] = l
	} else {
		cs.tail = l
	}
	cs.head = l
}

func (cs *CurveSim) unlink(l int32) {
	p, n := cs.prev[l], cs.next[l]
	if p >= 0 {
		cs.next[p] = n
	} else {
		cs.head = n
	}
	if n >= 0 {
		cs.prev[n] = p
	} else {
		cs.tail = p
	}
}

// touch classifies one access to line l against every cache size at
// once.  The caller counts the access.
func (cs *CurveSim) touch(l int32) {
	if b := cs.band[l]; b >= 0 {
		cs.hits[b]++
		if l == cs.head {
			return // stack order unchanged
		}
		// Markers whose capacity lies strictly in front of l's position
		// see their line slide one position down the stack.  prev is -1
		// exactly when the capacity is a single line (the marker is the
		// head); that marker is re-pointed at the new head below.
		for i := int32(0); i < b; i++ {
			m := cs.markers[i]
			cs.markers[i] = cs.prev[m]
			cs.band[m] = i + 1
		}
		// When l is itself the marker of its band, the line now at that
		// capacity is l's predecessor.
		if cs.markers[b] == l {
			cs.markers[b] = cs.prev[l]
		}
		cs.unlink(l)
		cs.pushFront(l)
		cs.band[l] = 0
		if cs.caps[0] == 1 {
			cs.markers[0] = l
		}
		return
	}
	// A miss for every size in the sweep: cold, or evicted even from the
	// largest cache (inclusion makes those the same class).
	cs.cold++
	for i, m := range cs.markers {
		if m >= 0 {
			cs.markers[i] = cs.prev[m]
			cs.band[m] = int32(i + 1)
		}
	}
	if cs.length == cs.caps[len(cs.caps)-1] {
		t := cs.tail // just slid past the largest capacity: evict
		cs.unlink(t)
		cs.band[t] = -1
		cs.length--
	}
	cs.pushFront(l)
	cs.band[l] = 0
	cs.length++
	// The stack may have just grown to exactly one of the capacities,
	// defining that marker for the first time: the tail is at that
	// position, and its band already equals the marker index by the
	// incremental updates above.
	for i, c := range cs.caps {
		if cs.length == c {
			cs.markers[i] = cs.tail
		}
	}
	if cs.caps[0] == 1 {
		cs.markers[0] = l
	}
}

// bucket groups the pairs by source into order with a counting sort:
// VP w's destinations, in send order, end at offsets[w] and start where
// VP w-1's end.
func (cs *CurveSim) bucket(pairs *core.PairList) error {
	n := pairs.Len()
	if n > math.MaxInt32 {
		return fmt.Errorf("cachesim: step %d has %d pairs, more than %d", cs.steps, n, math.MaxInt32)
	}
	off := cs.offsets
	clear(off)
	for src, dst := range pairs.All() {
		if uint32(src) >= uint32(cs.v) || uint32(dst) >= uint32(cs.v) {
			return fmt.Errorf("cachesim: step %d has pair [%d, %d], outside [0, %d)", cs.steps, src, dst, cs.v)
		}
		off[src+1]++
	}
	for w := 1; w < len(off); w++ {
		off[w] += off[w-1]
	}
	if cap(cs.order) < n {
		cs.order = make([]int32, n)
	}
	order := cs.order[:n]
	for src, dst := range pairs.All() {
		order[off[src]] = dst
		off[src]++
	}
	cs.order = order
	return nil
}

// Step folds one superstep's address stream into the curve.  Every pair
// endpoint must be a VP of the machine.
func (cs *CurveSim) Step(rec *core.StepRec) error {
	if rec.Messages > 0 && rec.Pairs.Len() == 0 {
		return ErrNoPairs
	}
	if cs.band == nil {
		cs.prev = make([]int32, cs.lines)
		cs.next = make([]int32, cs.lines)
		cs.band = make([]int32, cs.lines)
		for l := range cs.band {
			cs.band[l] = -1
		}
		cs.offsets = make([]int32, cs.v+1)
	}
	if err := cs.bucket(rec.Pairs); err != nil {
		return err
	}
	ctx, b := int64(cs.ctxWords), cs.bWords
	var start int32
	for w := 0; w < cs.v; w++ {
		// The context, one stack update per line it spans.
		base := int64(w) * cs.region
		for a, end := base, base+ctx; a < end; {
			l := a / b
			next := min((l+1)*b, end)
			cs.touch(int32(l))
			cs.hits[0] += next - a - 1
			a = next
		}
		end := cs.offsets[w]
		for _, dst := range cs.order[start:end] {
			cs.touch(int32((int64(dst)*cs.region + ctx) / b))
		}
		start = end
	}
	cs.accesses += int64(cs.v)*ctx + int64(len(cs.order))
	cs.steps++
	return nil
}

// Misses returns the miss count per sweep entry, in the order the sizes
// were given: an access misses cache i exactly when it was absent from
// the stack or resident with a band beyond i.
func (cs *CurveSim) Misses() []int64 {
	suffix := cs.cold
	perCap := make([]int64, len(cs.caps))
	for b := len(cs.caps) - 1; b >= 0; b-- {
		perCap[b] = suffix // misses for capacity index b: every hit in a band above it
		suffix += cs.hits[b]
	}
	out := make([]int64, len(cs.sizes))
	for i, ci := range cs.capIdx {
		out[i] = perCap[ci]
	}
	return out
}

// Accesses returns the total word accesses simulated, identical for
// every size of the sweep (they share one address stream).
func (cs *CurveSim) Accesses() int64 { return cs.accesses }

// Words returns the simulated memory footprint in words.
func (cs *CurveSim) Words() int64 { return int64(cs.v) * cs.region }
