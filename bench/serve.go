package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/network"
	"netoblivious/internal/service"
)

// requestTimeout bounds one request; a request that times out fails.
const requestTimeout = 60 * time.Second

// Client counts of the closed-loop workloads.  serve-cold sends from one
// client: its requests range from a fraction of a millisecond to a third
// of a second and the engines use every core, so with a second client a
// short request's latency depends on whether a long one happens to run
// beside it, and its median moved by a quarter from seed to seed.
const (
	coldClients  = 1
	fleetClients = 2
)

// newHTTPClient returns the load generator's HTTP client: at most conns
// connections per node.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// newClient returns a service client that surfaces every refusal (429
// and 503) instead of retrying it, so refusals count as failures.
func newClient(url string, hc *http.Client) *service.Client {
	return &service.Client{BaseURL: url, HTTPClient: hc, MaxRetries: -1}
}

// answer is the outcome of one request.
type answer struct {
	d      time.Duration
	cached bool
	err    error
}

// ask sends one request, times it, and checks the answer against its
// golden hash.
func (s *session) ask(c *service.Client, req service.Request, tid int) answer {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	start := time.Now()
	resp, err := c.Analyze(ctx, req)
	d := time.Since(start)
	s.span("Client.Analyze", tid, start)
	if err != nil {
		return answer{err: err}
	}
	if resp.Status != string(service.StatusDone) || resp.Document == nil {
		return answer{err: fmt.Errorf("%s: status %q: %s", req.Key(), resp.Status, resp.Error)}
	}
	if err := s.golden.checkServe(req.Key(), resp.Document.Records); err != nil {
		return answer{err: err}
	}
	return answer{d: d, cached: resp.Cached}
}

// closedLoop sends n requests from `clients` callers, each sending its
// next request when its previous answer arrives, and returns the wall
// time.
func closedLoop(n, clients int, send func(i, tid int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				send(i, tid)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends request i at start+offsets[i] whatever the node's state,
// over `conns` connections, and hands each send its due time, so latency
// includes the wait a stall imposes on later requests.  It returns how
// late the generator dispatched each request (ms).
func openLoop(offsets []time.Duration, conns int, send func(i, tid int, due time.Time)) []float64 {
	late := make([]float64, len(offsets))
	ch := make(chan int, len(offsets)) // one slot per send: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for c := 1; c <= conns; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range ch {
				send(i, tid, start.Add(offsets[i]))
			}
		}(c)
	}
	for i, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = msOf(time.Since(due))
		ch <- i
	}
	close(ch)
	wg.Wait()
	return late
}

// serveLayers accumulates the client-side split of one traced pass.
type serveLayers struct {
	mu               sync.Mutex
	hit, miss        []float64
	forwarded, local []float64
}

func (sl *serveLayers) add(req service.Request, a answer, forwarded *bool) {
	if a.err != nil || req.Kind == service.KindBounds {
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if a.cached {
		sl.hit = append(sl.hit, msOf(a.d))
	} else {
		sl.miss = append(sl.miss, msOf(a.d))
	}
	if forwarded != nil {
		if *forwarded {
			sl.forwarded = append(sl.forwarded, msOf(a.d))
		} else {
			sl.local = append(sl.local, msOf(a.d))
		}
	}
}

// record stores the split as per-layer metrics.
func (sl *serveLayers) record(s *session) {
	s.layer("service.hit_ms.p50", median(sl.hit))
	s.layer("service.miss_ms.p50", median(sl.miss))
	if n := len(sl.hit) + len(sl.miss); n > 0 {
		s.layer("service.result_hit_ratio", float64(len(sl.hit))/float64(n))
	}
	if n := len(sl.forwarded) + len(sl.local); n > 0 {
		s.layer("cluster.forward_ratio", float64(len(sl.forwarded))/float64(n))
		s.layer("cluster.forwarded_ms.p50", median(sl.forwarded))
		s.layer("cluster.local_ms.p50", median(sl.local))
	}
}

// metricsOf reads the nodes' /metrics snapshots.
func metricsOf(clients []*service.Client) ([]service.MetricsSnapshot, error) {
	out := make([]service.MetricsSnapshot, len(clients))
	for i, c := range clients {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		m, err := c.Metrics(ctx)
		cancel()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// recordMetricDeltas turns the change in the nodes' /metrics between two
// snapshots into per-layer metrics.
func recordMetricDeltas(s *session, before, after []service.MetricsSnapshot) {
	var bounds []float64
	cum := map[float64]int64{}
	var count, refused int64
	var traceHits, traceMisses, traceEvict, repHits, repMisses int64
	for i := range after {
		b, a := before[i], after[i]
		for le, c := range a.QueueWait.Buckets {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			if _, seen := cum[v]; !seen {
				bounds = append(bounds, v)
			}
			cum[v] += c - b.QueueWait.Buckets[le]
		}
		count += a.QueueWait.Count - b.QueueWait.Count
		refused += a.Jobs.Rejected - b.Jobs.Rejected
		traceHits += a.Traces.Hits - b.Traces.Hits
		traceMisses += a.Traces.Misses - b.Traces.Misses
		traceEvict += a.Traces.Evictions - b.Traces.Evictions
		if a.Cluster != nil {
			refused += a.Cluster.Sheds["forwards"] - sheds(b.Cluster, "forwards")
			if a.Cluster.Replicas != nil {
				rb := service.CacheStats{}
				if b.Cluster != nil && b.Cluster.Replicas != nil {
					rb = *b.Cluster.Replicas
				}
				repHits += a.Cluster.Replicas.Hits - rb.Hits
				repMisses += a.Cluster.Replicas.Misses - rb.Misses
			}
		}
	}
	sort.Float64s(bounds)
	cums := make([]int64, len(bounds))
	for i, v := range bounds {
		cums[i] = cum[v]
	}
	s.layer("service.queue_wait_ms.p50", histPercentile(bounds, cums, count, 50))
	s.layer("service.queue_wait_ms.p99", histPercentile(bounds, cums, count, 99))
	s.layer("service.refused", float64(refused))
	s.layer("harness.trace_computes", float64(traceMisses))
	s.layer("harness.trace_evictions", float64(traceEvict))
	if n := traceHits + traceMisses; n > 0 {
		s.layer("harness.trace_hit_ratio", float64(traceHits)/float64(n))
	}
	if n := repHits + repMisses; n > 0 {
		s.layer("cluster.replica_hit_ratio", float64(repHits)/float64(n))
	}
}

func sheds(c *service.ClusterCounters, reason string) int64 {
	if c == nil {
		return 0
	}
	return c.Sheds[reason]
}

// routeNetworkKeys routes the h-relations behind the network requests
// through network.Sim with the session probe attached, so a traced run
// reports the routing layer the network keys exercise: every cluster
// level from the whole machine to single processors at h ∈ {1, 4, 16}.
func (s *session) routeNetworkKeys(reqs []service.Request) error {
	if s.probe == nil {
		return nil
	}
	for _, req := range reqs {
		if req.Kind != service.KindNetwork {
			continue
		}
		p := req.Machines[0].P
		topo, err := network.TopologyByName(req.Topology, p)
		if err != nil {
			return err
		}
		router, err := network.RouterByName(req.Strategy, 1)
		if err != nil {
			return err
		}
		sim := network.NewSim(topo)
		sim.Probe = s.probe
		rng := rand.New(rand.NewSource(1))
		for level := 0; 1<<level <= p; level++ {
			for _, h := range []int{1, 4, 16} {
				sim.RouteWith(router, network.ClusterHRelation(rng, p, level, h))
			}
		}
	}
	return nil
}

// startServeCold measures new queries reaching a running node: each pass
// builds a fresh node with the shipped defaults and sends it the whole
// cold set in a seeded order from one closed-loop client.  The first
// pass warms the process up and counts as set-up.
func startServeCold(s *session) (*runner, error) {
	cold := coldSet(alg.All())
	hc := newHTTPClient(s.nproc)
	pass := func(order *rand.Rand, measured bool) (time.Duration, error) {
		srv, err := service.New(service.Config{Probe: s.probe})
		if err != nil {
			return 0, err
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		c := newClient(ts.URL, hc)
		reqs := shuffled(cold, order)
		var sl serveLayers
		wall := closedLoop(len(reqs), coldClients, func(i, tid int) {
			a := s.ask(c, reqs[i], tid)
			switch {
			case !measured:
				s.check(a.err)
			case a.err != nil:
				s.fail(a.err)
			default:
				s.op(a.d)
			}
			sl.add(reqs[i], a, nil)
		})
		if s.probe != nil && measured {
			after, err := metricsOf([]*service.Client{c})
			if err != nil {
				return 0, err
			}
			recordMetricDeltas(s, []service.MetricsSnapshot{{}}, after)
			sl.record(s)
			if err := s.routeNetworkKeys(cold); err != nil {
				return 0, err
			}
		}
		return wall, nil
	}
	if _, err := pass(rngFor(s.seed, "serve-cold/warm-up", s.index), false); err != nil {
		return nil, err
	}
	return &runner{
		pass:  func(i int) (time.Duration, error) { return pass(rngFor(s.seed, "serve-cold", s.index*1000+i), true) },
		close: hc.CloseIdleConnections,
	}, nil
}

// serve-warm's load per pass: an open-loop stretch at warmRate, then a
// closed-loop burst of warmBurst requests for the warmHot most popular
// keys from nproc clients.
const (
	warmRate    = 1200 // requests per second
	warmStretch = time.Second
	warmBurst   = 4000
	warmHot     = 64
	warmUp      = 3000 // requests sent to fill the caches during set-up
)

// startServeWarm measures a read-mostly node: one node, warmed during
// set-up, answers keys drawn Zipf(1.1) from the warm key space.  The head
// is served from the 512-entry result cache; the tail misses it and, with
// more trace keys than the 64-entry trace cache holds, often the trace
// cache too.  The stretch gives the latency at a fixed rate, timed from
// each request's due time.  The burst gives the node's capacity for
// cached answers: it asks only for keys hot enough to stay cached, since
// a burst over the whole distribution times whichever tail key happens
// to need an engine run, not the node.
func startServeWarm(s *session) (*runner, error) {
	keys := warmKeys(alg.All())
	stream := newZipfStream(keys, rngFor(s.seed, "serve-warm/draws", s.index))
	srv, err := service.New(service.Config{Probe: s.probe})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	hc := newHTTPClient(s.nproc)
	c := newClient(ts.URL, hc)
	closeAll := func() {
		ts.Close()
		srv.Close()
		hc.CloseIdleConnections()
	}
	draw := func(n int) []service.Request {
		out := make([]service.Request, n)
		for i := range out {
			out[i] = stream.next()
		}
		return out
	}
	warm := draw(warmUp)
	closedLoop(len(warm), s.nproc, func(i, tid int) { s.check(s.ask(c, warm[i], tid).err) })
	pass := func(i int) (time.Duration, error) {
		before, err := metricsOf([]*service.Client{c})
		if err != nil {
			return 0, err
		}
		offsets := poissonOffsets(rngFor(s.seed, "serve-warm/arrivals", s.index*1000+i), warmRate, warmStretch)
		reqs := draw(len(offsets))
		var sl serveLayers
		late := openLoop(offsets, s.nproc, func(j, tid int, due time.Time) {
			a := s.ask(c, reqs[j], tid)
			if a.err != nil {
				s.fail(a.err)
				return
			}
			a.d = time.Since(due)
			s.op(a.d)
			sl.add(reqs[j], a, nil)
		})
		pick := rngFor(s.seed, "serve-warm/burst", s.index*1000+i)
		burst := make([]service.Request, warmBurst)
		for j := range burst {
			burst[j] = stream.keys[pick.Intn(warmHot)]
		}
		wall := closedLoop(len(burst), s.nproc, func(j, tid int) { s.check(s.ask(c, burst[j], tid).err) })
		if s.probe != nil {
			after, err := metricsOf([]*service.Client{c})
			if err != nil {
				return 0, err
			}
			recordMetricDeltas(s, before, after)
			sl.record(s)
			s.layer("loadgen.late_p99_ms", percentile(sortedCopy(late), 99))
		}
		return wall, nil
	}
	return &runner{pass: pass, close: closeAll}, nil
}

// Fleet listeners use fixed loopback ports, so the ring — a function of
// the member addresses — places every key the same way on every run.
// Only when a port is taken does the fleet move to the next block.
const (
	fleetNodes     = 3
	fleetPortBase  = 47411
	fleetPortTries = 20
)

// fleetListeners binds the fleet's listeners on the first free block of
// fixed ports.
func fleetListeners() ([]net.Listener, error) {
	for try := 0; try < fleetPortTries; try++ {
		var ls []net.Listener
		for i := 0; i < fleetNodes; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(fleetPortBase+try*fleetNodes+i))
			if err != nil {
				break
			}
			ls = append(ls, l)
		}
		if len(ls) == fleetNodes {
			return ls, nil
		}
		for _, l := range ls {
			l.Close()
		}
	}
	return nil, errors.New("no free block of fleet ports")
}

// startFleet measures a 3-node cluster: each pass builds the fleet with
// the shipped ClusterConfig defaults and one worker per node, then sends
// the cold set twice from two closed-loop clients — a cold round, then a
// warm round — each request to a seeded-random entry node.  About two
// thirds of requests land on a node that does not own their key and are
// forwarded.  The cold round's requests are the latency samples: the warm
// round's latencies split between cheap local or replica hits and
// forwarded hits in near-equal shares, so their median jumps between
// the two.  The first pass is a warm-up and counts as set-up.
func startFleet(s *session) (*runner, error) {
	cold := coldSet(alg.All())
	ls, err := fleetListeners()
	if err != nil {
		return nil, err
	}
	handlers := make([]atomic.Pointer[http.Handler], fleetNodes) // nil while no fleet is up
	hss := make([]*http.Server, fleetNodes)
	urls := make([]string, fleetNodes)
	var serving sync.WaitGroup
	for i, l := range ls {
		h := &handlers[i]
		hss[i] = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hh := h.Load(); hh != nil {
				(*hh).ServeHTTP(w, r)
				return
			}
			http.Error(w, "no fleet is up", http.StatusServiceUnavailable)
		})}
		urls[i] = "http://" + l.Addr().String()
		serving.Add(1)
		go func(hs *http.Server, l net.Listener) {
			defer serving.Done()
			hs.Serve(l) // returns once closeAll closes the server
		}(hss[i], l)
	}
	hc := newHTTPClient(s.nproc)
	clients := make([]*service.Client, fleetNodes)
	for i, u := range urls {
		clients[i] = newClient(u, hc)
	}
	pass := func(rng *rand.Rand, measured bool) (time.Duration, error) {
		srvs := make([]*service.Server, fleetNodes)
		for i := range srvs {
			srv, err := service.New(service.Config{Workers: 1, Probe: s.probe,
				Cluster: &service.ClusterConfig{Self: urls[i], Peers: urls}})
			if err != nil {
				return 0, err
			}
			srvs[i] = srv
			h := srv.Handler()
			handlers[i].Store(&h)
		}
		defer func() {
			for i, srv := range srvs {
				handlers[i].Store(nil)
				srv.Close()
			}
		}()
		type sent struct {
			req       service.Request
			entry     int
			forwarded bool
		}
		var rounds [2][]sent
		for r := range rounds {
			for _, req := range shuffled(cold, rng) {
				rounds[r] = append(rounds[r], sent{req: req, entry: rng.Intn(fleetNodes)})
			}
		}
		traced := s.probe != nil && measured
		if traced {
			for r := range rounds {
				for i := range rounds[r] {
					own, err := ownership(clients[rounds[r][i].entry], rounds[r][i].req)
					if err != nil {
						return 0, err
					}
					rounds[r][i].forwarded = !own
				}
			}
		}
		var sl serveLayers
		start := time.Now()
		for r, round := range rounds {
			closedLoop(len(round), min(fleetClients, s.nproc), func(i, tid int) {
				sn := round[i]
				a := s.ask(clients[sn.entry], sn.req, tid)
				switch {
				case !measured || r == 1:
					s.check(a.err)
				case a.err != nil:
					s.fail(a.err)
				default:
					s.op(a.d)
				}
				sl.add(sn.req, a, &sn.forwarded)
			})
		}
		wall := time.Since(start)
		after, err := metricsOf(clients)
		if err != nil {
			return 0, err
		}
		// Each key must be computed exactly once fleet-wide.
		var misses int64
		for _, m := range after {
			misses += m.Results.Misses
		}
		if misses != int64(len(cold)) {
			s.check(fmt.Errorf("fleet computed %d documents for %d keys", misses, len(cold)))
		} else {
			s.check(nil)
		}
		if traced {
			recordMetricDeltas(s, make([]service.MetricsSnapshot, fleetNodes), after)
			s.layer("cluster.computes_per_key", float64(misses)/float64(len(cold)))
			sl.record(s)
			if err := s.routeNetworkKeys(cold); err != nil {
				return 0, err
			}
		}
		return wall, nil
	}
	closeAll := func() {
		for _, hs := range hss {
			hs.Close()
		}
		serving.Wait()
		hc.CloseIdleConnections()
	}
	if _, err := pass(rngFor(s.seed, "fleet/warm-up", s.index), false); err != nil {
		closeAll()
		return nil, err
	}
	return &runner{
		pass:  func(i int) (time.Duration, error) { return pass(rngFor(s.seed, "fleet", s.index*1000+i), true) },
		close: closeAll,
	}, nil
}

// ownership asks the entry node whether it owns the request's key.
func ownership(c *service.Client, req service.Request) (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	view, err := c.Cluster(ctx, req.Key())
	if err != nil {
		return false, err
	}
	if view.Ownership == nil {
		return false, errors.New("cluster view carries no ownership")
	}
	return view.Ownership.Local, nil
}
