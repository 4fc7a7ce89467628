package dbsp

import (
	"fmt"

	"netoblivious/internal/core"
)

// ProtocolCost is the superstep/degree profile of an algorithm executed on
// a D-BSP through the ascend–descend protocol of Section 5.  It plays the
// role of the (F, S) vectors of the rewritten algorithm Ã of Theorem 5.3.
type ProtocolCost struct {
	// P is the number of D-BSP processors.
	P int
	// F[i] is the cumulative degree of the protocol's i-supersteps.
	F []int64
	// S[i] is the number of i-supersteps the protocol executes
	// (communication supersteps plus the prefix-computation supersteps).
	S []int64
}

// CommTime evaluates Eq. 2 for the protocol profile on the given machine.
func (pc ProtocolCost) CommTime(pr Params) float64 {
	if pr.P != pc.P {
		panic(fmt.Sprintf("dbsp: protocol simulated for p=%d, machine has p=%d", pc.P, pr.P))
	}
	return CommTimeOf(pc.F, pc.S, pr)
}

// AscendDescend is a core.TraceSink that runs the ascend–descend
// protocol (Section 5) for the recorded algorithm on p processors, one
// superstep at a time as the run completes it, and accumulates the exact
// superstep profile of the rewritten execution (Cost).
//
// For each i-superstep s of the original algorithm, the protocol executes:
//
//   - ascend phases k = log p − 1 down to i+1: within each k-cluster, the
//     messages originating in the cluster but destined outside it are
//     spread evenly over the cluster's processors;
//   - descend phases k = i up to log p − 1: within each k-cluster, the
//     messages residing in it are spread evenly over the processors of the
//     (k+1)-clusters containing their destinations.
//
// Each phase is preceded by a prefix-like computation that assigns the
// intermediate destinations; we charge it as 2·log2(cluster size)
// k-supersteps of degree 2 (a binary-tree reduce + broadcast, Ja'Ja' 1992),
// matching the O(log p) constant-degree supersteps of Lemma 5.1.
//
// The run must record with Options.RecordMessages.  The sink reads each
// record's pairs and keeps none of them.
type AscendDescend struct {
	p, lp int
	shift uint
	pc    ProtocolCost
}

// NewAscendDescend returns a sink simulating the protocol on p
// processors.  BeginTrace checks p against the run's machine.
func NewAscendDescend(p int) *AscendDescend { return &AscendDescend{p: p} }

// BeginTrace implements core.TraceSink: p must be a power of two with
// 1 < p <= v.
func (ad *AscendDescend) BeginTrace(v, logV int) error {
	lp, err := core.TryLog2(ad.p)
	if err != nil || lp < 1 || lp > logV {
		return fmt.Errorf("dbsp: AscendDescend: p=%d invalid for v=%d", ad.p, v)
	}
	ad.lp, ad.shift = lp, uint(logV-lp)
	ad.pc = ProtocolCost{P: ad.p, F: make([]int64, lp), S: make([]int64, lp)}
	return nil
}

// WriteStep implements core.TraceSink: it runs the protocol on one
// superstep and adds its supersteps and degrees to the profile.
func (ad *AscendDescend) WriteStep(rec core.StepRec) error {
	p, lp, shift, pc := ad.p, ad.lp, ad.shift, &ad.pc
	if lp == 0 {
		return fmt.Errorf("dbsp: AscendDescend: WriteStep before BeginTrace")
	}
	if rec.Messages > 0 && rec.Pairs == nil {
		return fmt.Errorf("dbsp: AscendDescend requires a trace recorded with RecordMessages")
	}
	label := rec.Label
	if label >= lp {
		return nil // local on M(p): no communication, no protocol
	}
	// Map messages to processor granularity.  holder[m] is the
	// processor currently holding message m.
	type msg struct{ holder, dst int }
	msgs := make([]msg, 0, rec.Pairs.Len())
	for src, dst := range rec.Pairs.All() {
		msgs = append(msgs, msg{holder: int(src) >> shift, dst: int(dst) >> shift})
	}

	// movePhase redistributes, for every k-cluster, the messages
	// selected by pick (which returns the target (sub)cluster range
	// for a message, or ok=false to leave it in place), assigning
	// new holders round-robin inside the target range.  It records
	// the movement as one k-superstep plus the prefix supersteps.
	movePhase := func(k int, pick func(m msg, first, size int) (tfirst, tsize int, ok bool)) {
		size := p >> uint(k)
		sent := make([]int64, p)
		recv := make([]int64, p)
		next := make([]int, p) // round-robin cursor per target range head
		for c := 0; c < 1<<uint(k); c++ {
			first := c * size
			for mi := range msgs {
				m := &msgs[mi]
				if m.holder < first || m.holder >= first+size {
					continue
				}
				tf, ts, ok := pick(*m, first, size)
				if !ok {
					continue
				}
				nh := tf + next[tf]%ts
				next[tf]++
				if nh != m.holder {
					sent[m.holder]++
					recv[nh]++
					m.holder = nh
				}
			}
		}
		var h int64
		for q := 0; q < p; q++ {
			if sent[q] > h {
				h = sent[q]
			}
			if recv[q] > h {
				h = recv[q]
			}
		}
		pc.F[k] += h
		pc.S[k]++
		// Prefix-like computation inside each k-cluster.
		height := int64(lp - k)
		pc.S[k] += 2 * height
		pc.F[k] += 2 * height * 2 // degree-2 tree supersteps
	}

	// Ascend: k = lp-1 down to label+1.
	for k := lp - 1; k >= label+1; k-- {
		movePhase(k, func(m msg, first, size int) (int, int, bool) {
			if m.dst >= first && m.dst < first+size {
				return 0, 0, false // destined inside: stays
			}
			return first, size, true // spread over the whole k-cluster
		})
	}
	// Descend: k = label up to lp-1.
	for k := label; k <= lp-1; k++ {
		subSize := p >> uint(k+1)
		movePhase(k, func(m msg, first, size int) (int, int, bool) {
			if m.dst < first || m.dst >= first+size {
				return 0, 0, false // not yet in the right cluster
			}
			tf := m.dst / subSize * subSize
			return tf, subSize, true
		})
	}
	// After the last descend, every message's holder must be its
	// destination.
	for _, m := range msgs {
		if m.holder != m.dst {
			return fmt.Errorf("dbsp: internal error: ascend–descend left a message at %d instead of %d", m.holder, m.dst)
		}
	}
	return nil
}

// EndTrace implements core.TraceSink.
func (ad *AscendDescend) EndTrace(runErr error) error { return nil }

// Cost returns the protocol profile of the supersteps written so far.
func (ad *AscendDescend) Cost() ProtocolCost { return ad.pc }
