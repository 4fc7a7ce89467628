package core

import (
	"iter"
	"sync"
)

// pairChunkLen is the pair capacity of one PairList chunk: 4096 pairs =
// two 16 KiB columns.  Growth beyond a chunk allocates a fresh chunk and
// never copies recorded pairs, so a message-heavy superstep costs one
// small allocation per 4096 messages instead of the repeated re-grow
// (and transient memory doubling) of a single flat slice.
const pairChunkLen = 4096

// pairChunk is one columnar segment of a PairList: parallel source and
// destination columns of equal length.  pooled marks chunks obtained
// from pairChunkPool: only those are ever returned to it by release,
// which keeps foreign columns — decoded columns wrapped by pairListOver,
// or undersized hint chunks — out of the pool no matter how lists are
// spliced together.
type pairChunk struct {
	src, dst []int32
	pooled   bool
}

// pairChunkPool recycles full-size chunks: a run releases each
// superstep's pairs once its sink's WriteStep returns, so a recorded run
// stops allocating two fresh 16 KiB columns per 4096 messages per
// superstep, whatever its sink does with the pairs.
var pairChunkPool = sync.Pool{New: func() any {
	return &pairChunk{
		src:    make([]int32, 0, pairChunkLen),
		dst:    make([]int32, 0, pairChunkLen),
		pooled: true,
	}
}}

// PairList is the chunked, columnar record of a superstep's message
// (src, dst) pairs.  A list handed to a consumer in a StepRec is lent:
// it is valid only until the WriteStep (or the Next) that handed it
// over returns, and a consumer that keeps the pairs copies them.
//
// PairList has no JSON form of its own: the trace codec
// (TraceJSONWriter, TraceJSONReader) writes and reads a step's pairs as
// the flat [[src, dst], ...] array the pre-columnar format used, so
// archived traces decode unchanged.
type PairList struct {
	chunks []*pairChunk
	n      int
}

// NewPairList returns an empty list.  hint, when positive, pre-sizes the
// first chunk for hint pairs (clipped to the chunk capacity) so callers
// that know a superstep's message count — the engines do — avoid every
// intermediate growth step.  A hint of at least a full chunk draws from
// the chunk pool.
func NewPairList(hint int) *PairList {
	p := &PairList{}
	if hint > 0 {
		p.chunks = append(p.chunks, newPairChunk(hint))
	}
	return p
}

// newPairChunk returns an empty chunk with room for hint pairs: pooled
// full-size chunks for hint >= pairChunkLen (or unknown hints <= 0), a
// private right-sized allocation below that.
func newPairChunk(hint int) *pairChunk {
	if hint <= 0 || hint >= pairChunkLen {
		return pairChunkPool.Get().(*pairChunk)
	}
	return &pairChunk{src: make([]int32, 0, hint), dst: make([]int32, 0, hint)}
}

// release returns the list's pooled chunks to the chunk pool and empties
// the list.  Its one caller is the run (Trace.flushLocked), once the
// sink's WriteStep for the superstep has returned: the record was only
// lent to the sink.  Chunks that did not come from the pool (decoded
// columns, undersized hint chunks) are left for the garbage collector.
// Releasing a nil or empty list is a no-op.
func (p *PairList) release() {
	if p == nil {
		return
	}
	for i, c := range p.chunks {
		if c.pooled {
			c.src = c.src[:0]
			c.dst = c.dst[:0]
			pairChunkPool.Put(c)
		}
		p.chunks[i] = nil
	}
	p.chunks = nil
	p.n = 0
}

// pairListOver wraps existing parallel columns as a single-chunk list
// without copying.  The codec readers use it to lend each step's decode
// columns to the record Next returns; the list is never released, so
// the columns stay the reader's.
func pairListOver(src, dst []int32) *PairList {
	if len(src) != len(dst) {
		panic("core: pairListOver: column lengths differ")
	}
	if len(src) == 0 {
		return &PairList{}
	}
	return &PairList{chunks: []*pairChunk{{src: src, dst: dst}}, n: len(src)}
}

// Len returns the number of recorded pairs.  A nil list is empty.
func (p *PairList) Len() int {
	if p == nil {
		return 0
	}
	return p.n
}

// Append records one (src, dst) pair.
func (p *PairList) Append(src, dst int32) {
	if len(p.chunks) == 0 || len(p.chunks[len(p.chunks)-1].src) == cap(p.chunks[len(p.chunks)-1].src) {
		p.chunks = append(p.chunks, newPairChunk(0))
	}
	c := p.chunks[len(p.chunks)-1]
	c.src = append(c.src, src)
	c.dst = append(c.dst, dst)
	p.n++
}

// Splice moves every chunk of other into p without copying a single
// pair.  other is emptied: ownership of its chunks transfers to p.  This
// is how the engines hand a superstep's per-worker shards to the trace —
// an O(chunks) pointer move inside the trace lock instead of an
// O(messages) copy.
func (p *PairList) Splice(other *PairList) {
	if other == nil || other.n == 0 {
		return
	}
	p.chunks = append(p.chunks, other.chunks...)
	p.n += other.n
	other.chunks = nil
	other.n = 0
}

// All iterates the pairs in append order (across spliced shards, shard
// order).  For a record of a BlockEngine run that is source VP, then
// send order, the same in every run; see StepRec.Pairs.
func (p *PairList) All() iter.Seq2[int32, int32] {
	return func(yield func(int32, int32) bool) {
		if p == nil {
			return
		}
		for _, c := range p.chunks {
			for i := range c.src {
				if !yield(c.src[i], c.dst[i]) {
					return
				}
			}
		}
	}
}

// Pairs materializes the list as a flat [][2]int32, in iteration order.
// Intended for tests and one-shot analyses; hot paths should iterate All.
func (p *PairList) Pairs() [][2]int32 {
	if p.Len() == 0 {
		return nil
	}
	out := make([][2]int32, 0, p.n)
	for src, dst := range p.All() {
		out = append(out, [2]int32{src, dst})
	}
	return out
}

// PairListOf builds a list from a flat pair slice (the inverse of Pairs).
func PairListOf(pairs [][2]int32) *PairList {
	p := NewPairList(len(pairs))
	for _, pr := range pairs {
		p.Append(pr[0], pr[1])
	}
	return p
}
