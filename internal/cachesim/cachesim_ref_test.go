package cachesim

// The per-size reference simulator: an IC(M, B) cache over a map and a
// container/list LRU, driven by one full re-simulation per cache size.
// It is the oracle CurveSim is tested against and has no production
// caller.

import (
	"container/list"
	"fmt"

	"netoblivious/internal/core"
)

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
// one cache size per pass and is the reference the single-pass CurveSim
// is tested against.
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
