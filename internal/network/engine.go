package network

import (
	"fmt"
	"math/bits"
)

// Packet is the in-flight routing state of one message.  Dst is the final
// destination; Via is the intermediate destination of a two-phase
// strategy (Valiant), or -1 when heading straight to Dst.
type Packet struct {
	Dst int32
	Via int32
}

// target is the node the packet is currently steering toward.
func (pk Packet) target() int32 {
	if pk.Via >= 0 {
		return pk.Via
	}
	return pk.Dst
}

// RouteResult summarizes one routed message set.
type RouteResult struct {
	// Makespan is the number of steps until the last delivery.
	Makespan int
	// TotalHops is the sum of path lengths actually traversed.
	TotalHops int
	// Delivered is the number of messages routed.
	Delivered int
}

// edgeQueue is a growable FIFO ring buffer of packets for one directed
// edge.  The zero value is an empty queue.
type edgeQueue struct {
	buf  []Packet
	head int
	n    int
}

func (q *edgeQueue) push(pk Packet) {
	if q.n == len(q.buf) {
		grown := make([]Packet, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = pk
	q.n++
}

func (q *edgeQueue) pop() Packet {
	pk := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return pk
}

// arrival is a packet that traversed an edge this step.
type arrival struct {
	at int32
	pk Packet
}

// routeState is the per-Route mutable state of the engine, kept by the
// Sim across calls so steady-state routing allocates nothing per step.
type routeState struct {
	queues   []edgeQueue
	active   []uint64 // bitset over directed edge ids; set = queue nonempty
	arrivals []arrival
}

func (s *Sim) newState() *routeState {
	e := s.topo.Edges()
	return &routeState{
		queues: make([]edgeQueue, e),
		active: make([]uint64, (e+63)/64),
	}
}

// RouteWith routes the message set under the given strategy.  Identical
// inputs (and, for randomized routers, identical seeds) produce identical
// results on every run: packets are injected in message order and edges
// always drain in ascending edge-id order — the (node, neighbor-index)
// lexicographic order — with no dependence on scheduling or GOMAXPROCS.
//
//nob:deterministic
func (s *Sim) RouteWith(r Router, msgs [][2]int) RouteResult {
	for _, m := range msgs {
		if m[0] < 0 || m[0] >= s.topo.P || m[1] < 0 || m[1] >= s.topo.P {
			panic(fmt.Sprintf("network: message %v out of range", m))
		}
	}
	start := s.Probe.Now()
	st := s.state
	s.state = nil
	if st == nil {
		st = s.newState()
	}
	res := st.run(s, r, msgs)
	// Kept only on normal completion: a panic unwinding past here (a
	// router or topology bug) must not leave half-drained queues for the
	// next RouteWith call.
	s.state = st
	if s.Probe != nil {
		s.Probe.Span("network", "route "+s.topo.Name, 0, start, map[string]any{
			"strategy":   r.Name(),
			"messages":   len(msgs),
			"makespan":   res.Makespan,
			"total_hops": res.TotalHops,
		})
	}
	return res
}

// enqueue places pk, currently at node `at`, on an outgoing edge toward
// its next hop: among the parallel edges of the (at → hop) link it picks
// the shortest queue, breaking ties by lowest edge id.  It runs once per
// hop of every routed packet.
//
//nob:hotpath
func (st *routeState) enqueue(s *Sim, at int32, pk Packet) {
	hop := s.nextHop[at][pk.target()]
	for _, g := range s.topo.links[at] {
		if g.to != hop {
			continue
		}
		e := g.e0
		if g.width > 1 {
			best := st.queues[e].n
			for i := int32(1); i < g.width; i++ {
				if n := st.queues[g.e0+i].n; n < best {
					best, e = n, g.e0+i
				}
			}
		}
		st.queues[e].push(pk)
		st.active[e>>6] |= 1 << uint(e&63)
		return
	}
	//nolint:hotalloc // unreachable unless the routing table is corrupt; the cold panic path may format
	panic(fmt.Sprintf("network: %s: no link %d->%d", s.topo.Name, at, hop))
}

// settle advances the packet's phase at node `at`: clearing a reached
// intermediate destination.  It reports whether the packet is home.
func settle(at int32, pk *Packet) (delivered bool) {
	if pk.Via == at {
		pk.Via = -1
	}
	return pk.Dst == at
}

// run is the simulation's inner loop: inject, then drain active edges
// superstep by superstep until every packet is home.  It reuses the
// pooled state's buffers and must stay allocation-free per step.
//
//nob:hotpath
func (st *routeState) run(s *Sim, r Router, msgs [][2]int) RouteResult {
	res := RouteResult{}
	inflight := 0
	for _, m := range msgs {
		pk := r.Inject(int32(m[0]), int32(m[1]))
		if settle(int32(m[0]), &pk) {
			res.Delivered++
			continue
		}
		st.enqueue(s, int32(m[0]), pk)
		inflight++
	}
	step := 0
	arrivals := st.arrivals[:0]
	for inflight > 0 {
		step++
		// Drain one packet from every active edge, ascending edge id.
		// The bitset scan is the event horizon: idle edges cost one
		// cleared bit, not a map visit and a sort slot.
		for w, word := range st.active {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				e := int32(w<<6 | b)
				q := &st.queues[e]
				arrivals = append(arrivals, arrival{at: s.topo.edgeHead[e], pk: q.pop()})
				res.TotalHops++
				if q.n == 0 {
					st.active[w] &^= 1 << uint(b)
				}
			}
		}
		// Deliver or forward, in the same deterministic order.
		for _, a := range arrivals {
			if settle(a.at, &a.pk) {
				res.Delivered++
				res.Makespan = step
				inflight--
				continue
			}
			st.enqueue(s, a.at, a.pk)
		}
		arrivals = arrivals[:0]
	}
	st.arrivals = arrivals
	return res
}
