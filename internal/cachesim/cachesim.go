// Package cachesim explores the paper's Section 6 conjecture: "we
// conjecture that cache-oblivious algorithms can be obtained by simulating
// network-oblivious ones using a suitable adaptation of the technique
// developed in Pietracaprina et al. [2006]".
//
// It provides the ideal cache model IC(M, B) of the cache-oblivious
// framework (fully associative, LRU, M words in lines of B words) and a
// sequential simulator that executes a recorded M(v) trace VP by VP,
// superstep by superstep — the natural folding-to-one-processor schedule —
// touching each VP's context and writing each message into its
// destination's mailbox.  The cache-miss count of this simulation is the
// I/O complexity of the derived sequential algorithm.
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
	"container/list"
	"errors"
	"fmt"
	"io"
	"sort"

	"netoblivious/internal/core"
)

// ErrNoPairs reports a simulation request over a trace recorded without
// message pairs: there is no address stream to simulate.  Callers
// surface it with re-record guidance (`nobl stat -cache` tells the user
// to re-run `nobl trace -record`).
var ErrNoPairs = errors.New("cachesim: trace must be recorded with RecordMessages (message pairs are missing)")

// Cache is an ideal cache IC(M, B): fully associative, LRU replacement.
type Cache struct {
	mWords, bWords int
	capacity       int // number of lines
	lines          map[int64]*list.Element
	lru            *list.List // front = most recent; values are line ids

	// Misses counts line fetches; Accesses counts word accesses.
	Misses, Accesses int64
}

// New builds an IC(M, B) cache; M and B are in words, B must divide M.
func New(mWords, bWords int) (*Cache, error) {
	if mWords <= 0 || bWords <= 0 || mWords%bWords != 0 {
		return nil, fmt.Errorf("cachesim: invalid cache M=%d B=%d", mWords, bWords)
	}
	return &Cache{
		mWords:   mWords,
		bWords:   bWords,
		capacity: mWords / bWords,
		lines:    make(map[int64]*list.Element),
		lru:      list.New(),
	}, nil
}

// Access touches one word of memory, updating LRU state and miss counts.
func (c *Cache) Access(addr int64) (miss bool) {
	c.Accesses++
	line := addr / int64(c.bWords)
	if el, ok := c.lines[line]; ok {
		c.lru.MoveToFront(el)
		return false
	}
	c.Misses++
	if c.lru.Len() == c.capacity {
		back := c.lru.Back()
		delete(c.lines, back.Value.(int64))
		c.lru.Remove(back)
	}
	c.lines[line] = c.lru.PushFront(line)
	return true
}

// AccessRange touches words [addr, addr+n).
func (c *Cache) AccessRange(addr int64, n int) {
	for i := 0; i < n; i++ {
		c.Access(addr + int64(i))
	}
}

// SimStats summarizes a trace simulation.  Misses and Accesses count
// this simulation only: SimulateTrace snapshots the cache's cumulative
// counters on entry and reports deltas, so one Cache can be reused
// across traces (warm-cache studies) without conflating runs.
type SimStats struct {
	// Misses is the IC(M,B) miss count of the sequential execution.
	Misses int64
	// Accesses is the total word accesses.
	Accesses int64
	// Words is the simulated memory footprint in words.
	Words int64
}

// stepSchedule is the reusable per-superstep driver of the sequential
// simulation: each VP in ascending order touches its ctxWords-word
// context, then writes one word into the destination mailbox of every
// message it sends.  Mailboxes are laid out next to their owner's
// context, so locality of communication translates into locality of
// reference — the mechanism behind the Section 6 conjecture.  The
// per-source buckets are retained across supersteps, so driving a
// streamed trace allocates O(largest superstep), not O(trace).
type stepSchedule struct {
	v        int
	ctxWords int
	region   int64 // per-VP region: context followed by a mailbox slot
	bySrc    [][]int32
}

func newStepSchedule(v, ctxWords int) (*stepSchedule, error) {
	if ctxWords < 1 {
		return nil, fmt.Errorf("cachesim: ctxWords must be positive")
	}
	if v < 1 {
		return nil, fmt.Errorf("cachesim: invalid machine width v=%d", v)
	}
	return &stepSchedule{v: v, ctxWords: ctxWords, region: int64(ctxWords + 1), bySrc: make([][]int32, v)}, nil
}

// run feeds one superstep's address stream to touch.  Pairs order within
// a superstep is unspecified, so messages are bucketed by source first
// for the per-VP schedule.
func (ss *stepSchedule) run(rec *core.StepRec, touch func(addr int64)) error {
	if rec.Messages > 0 && rec.Pairs.Len() == 0 {
		return ErrNoPairs
	}
	for i := range ss.bySrc {
		ss.bySrc[i] = ss.bySrc[i][:0]
	}
	for src, dst := range rec.Pairs.All() {
		ss.bySrc[src] = append(ss.bySrc[src], dst)
	}
	for w := 0; w < ss.v; w++ {
		base := int64(w) * ss.region
		for i := 0; i < ss.ctxWords; i++ {
			touch(base + int64(i))
		}
		for _, dst := range ss.bySrc[w] {
			touch(int64(dst)*ss.region + int64(ss.ctxWords))
		}
	}
	return nil
}

// SimulateTrace executes the recorded algorithm sequentially on one
// processor with an IC(M, B) cache (the trace must be recorded with
// RecordMessages); see stepSchedule for the access model.  It simulates
// one cache size per pass and is kept as the reference the single-pass
// CurveSim is tested against.
func SimulateTrace(tr *core.Trace, ctxWords int, cache *Cache) (SimStats, error) {
	ss, err := newStepSchedule(tr.V, ctxWords)
	if err != nil {
		return SimStats{}, err
	}
	startMisses, startAccesses := cache.Misses, cache.Accesses
	touch := func(addr int64) { cache.Access(addr) }
	for i := range tr.Steps {
		if err := ss.run(&tr.Steps[i], touch); err != nil {
			return SimStats{}, err
		}
	}
	return SimStats{
		Misses:   cache.Misses - startMisses,
		Accesses: cache.Accesses - startAccesses,
		Words:    int64(ss.v) * ss.region,
	}, nil
}

// curveNode is one resident cache line of the CurveSim's shared LRU
// stack.
type curveNode struct {
	line       int64
	band       int
	prev, next *curveNode
}

// CurveSim simulates every cache size of a sweep in a single traversal
// of the address stream, exploiting the inclusion property of fully
// associative LRU (Mattson's stack algorithm): for a fixed line size, a
// cache of capacity C holds exactly the top C lines of one global LRU
// stack, so one stack plus one marker per capacity classifies every
// access for all sizes at once.  Each resident line carries its band —
// the index of the smallest cache in the sweep that still holds it —
// and markers are nudged in O(sizes) per access, turning the
// O(sizes × trace) per-size re-simulation into O(trace).
type CurveSim struct {
	ss     *stepSchedule
	bWords int
	sizes  []int // the sweep, in caller order
	caps   []int // strictly increasing unique line capacities
	capIdx []int // sizes[i] -> index into caps

	nodes      map[int64]*curveNode
	head, tail *curveNode
	length     int
	markers    []*curveNode // markers[i]: node at stack position caps[i]; nil while shorter

	hits     []int64 // hits[b]: accesses to lines resident with band b
	cold     int64   // accesses missing even the largest cache
	accesses int64
	steps    int
}

// NewCurveSim builds a single-pass simulator for a machine of v VPs
// over the given cache sizes (words); B is the line length in words and
// every size must be a positive multiple of it.
func NewCurveSim(v, ctxWords, bWords int, sizes []int) (*CurveSim, error) {
	ss, err := newStepSchedule(v, ctxWords)
	if err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("cachesim: empty cache-size sweep")
	}
	cs := &CurveSim{ss: ss, bWords: bWords, sizes: sizes, capIdx: make([]int, len(sizes))}
	uniq := map[int]bool{}
	for _, m := range sizes {
		if _, err := New(m, bWords); err != nil {
			return nil, err
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
	cs.nodes = make(map[int64]*curveNode)
	cs.markers = make([]*curveNode, len(cs.caps))
	cs.hits = make([]int64, len(cs.caps))
	return cs, nil
}

func (cs *CurveSim) pushFront(n *curveNode) {
	n.prev = nil
	n.next = cs.head
	if cs.head != nil {
		cs.head.prev = n
	}
	cs.head = n
	if cs.tail == nil {
		cs.tail = n
	}
}

func (cs *CurveSim) unlink(n *curveNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		cs.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		cs.tail = n.prev
	}
}

// touch classifies one word access against every cache size at once.
func (cs *CurveSim) touch(addr int64) {
	cs.accesses++
	line := addr / int64(cs.bWords)
	if n, ok := cs.nodes[line]; ok {
		b := n.band
		cs.hits[b]++
		if n == cs.head {
			return // stack order unchanged
		}
		// Markers whose capacity lies strictly in front of n's position
		// see their element slide one position down the stack.  m.prev
		// is nil exactly when the capacity is a single line (m is the
		// head); that marker is re-pointed at the new head below.
		for i := 0; i < b; i++ {
			m := cs.markers[i]
			cs.markers[i] = m.prev
			m.band = i + 1
		}
		// When n is itself the marker of its band, the element now at
		// that capacity is n's predecessor.
		if cs.markers[b] == n {
			cs.markers[b] = n.prev
		}
		cs.unlink(n)
		cs.pushFront(n)
		n.band = 0
		if cs.caps[0] == 1 {
			cs.markers[0] = cs.head
		}
		return
	}
	// A miss for every size in the sweep: cold, or evicted even from the
	// largest cache (inclusion makes those the same class).
	cs.cold++
	for i, m := range cs.markers {
		if m != nil {
			cs.markers[i] = m.prev
			m.band = i + 1
		}
	}
	maxCap := cs.caps[len(cs.caps)-1]
	var n *curveNode
	if cs.length == maxCap {
		n = cs.tail // just slid past the largest capacity: evict and reuse
		cs.unlink(n)
		delete(cs.nodes, n.line)
		cs.length--
	} else {
		n = &curveNode{}
	}
	n.line = line
	n.band = 0
	cs.pushFront(n)
	cs.nodes[line] = n
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
		cs.markers[0] = cs.head
	}
}

// Step folds one superstep's address stream into the curve.
func (cs *CurveSim) Step(rec *core.StepRec) error {
	if err := cs.ss.run(rec, cs.touch); err != nil {
		return err
	}
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
func (cs *CurveSim) Words() int64 { return int64(cs.ss.v) * cs.ss.region }

// MissCurve drains src through a CurveSim over a sweep of cache sizes
// (words) and returns it: Misses gives the miss count per size, Accesses
// and Words the shared access total and footprint.  B is the line length
// in words.  One traversal drives every size simultaneously; see
// CurveSim.  It does not Close the source.
func MissCurve(src core.TraceSource, ctxWords, bWords int, sizes []int) (*CurveSim, error) {
	cs, err := NewCurveSim(src.V(), ctxWords, bWords, sizes)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return cs, nil
		}
		if err != nil {
			return nil, err
		}
		if err := cs.Step(rec); err != nil {
			return nil, err
		}
	}
}

// missCurveReference is the pre-single-pass implementation — one full
// re-simulation per size — retained as the oracle for the golden
// equality test of CurveSim.
func missCurveReference(tr *core.Trace, ctxWords, bWords int, sizes []int) ([]int64, error) {
	out := make([]int64, len(sizes))
	for i, m := range sizes {
		c, err := New(m, bWords)
		if err != nil {
			return nil, err
		}
		st, err := SimulateTrace(tr, ctxWords, c)
		if err != nil {
			return nil, err
		}
		out[i] = st.Misses
	}
	return out, nil
}
