package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"netoblivious/internal/cluster"
	"netoblivious/internal/harness"
	"netoblivious/internal/obs"
)

// ClusterConfig turns a Server into one node of a nobld fleet (or a
// cacheless router in front of one).  Placement is oblivious in the
// paper's sense: which node answers a request depends only on the
// request key and this static configuration — never on load, history
// or any coordinator — so every node (and every routing client)
// computes the same owner independently.
type ClusterConfig struct {
	// Self is this node's advertised base URL; it must appear in Peers
	// unless RouteOnly is set.  Ignored (may be empty) for routers.
	Self string
	// Peers is the full static membership: every cache-owning node's
	// base URL, including this one.  All nodes of a fleet must be
	// configured with the same set (order does not matter).
	Peers []string
	// RouteOnly makes the server a stateless router: it owns no shard,
	// keeps no caches, and forwards every asynchronous request to the
	// owning peer.
	RouteOnly bool
	// VNodes is the virtual-node count per member; 0 means
	// cluster.DefaultVNodes.  Must match across the fleet.
	VNodes int
	// Seed seeds the ring's placement hash.  Must match across the fleet.
	Seed uint64
	// MaxForwards bounds concurrent in-flight forwards per node; excess
	// forwards are shed with 429.  0 means 256.
	MaxForwards int
	// HealthInterval is the peer-probe cadence; 0 means
	// cluster.DefaultHealthInterval.
	HealthInterval time.Duration
}

// headerForwarded marks a request as already forwarded once.  A node
// receiving it answers locally no matter what its ring says — with a
// consistent fleet configuration the ring says "local" anyway, and with
// an inconsistent one this bound keeps disagreement from becoming a
// forwarding loop.
const headerForwarded = "X-Nobld-Forwarded"

// clusterState is the per-server cluster runtime: the ring, the peer
// clients, the health tracker and the forward gate.
// All fields are set at construction; only the atomics mutate.
type clusterState struct {
	self      string
	routeOnly bool
	ring      *cluster.Ring
	tracker   *cluster.Tracker
	clients   map[string]*Client // ring member -> forwarding client
	seed      uint64

	inFlight       atomic.Int64
	maxInFlight    int64
	forwardTimeout time.Duration
}

// newClusterState validates the cluster configuration and builds the
// runtime.  It returns (nil, nil) for an empty non-router peer list:
// that is plain single-node operation.
func newClusterState(s *Server, cc ClusterConfig) (*clusterState, error) {
	peers := cluster.NormalizeAddrs(cc.Peers)
	self := cluster.NormalizeAddr(cc.Self)
	if len(peers) == 0 {
		if cc.RouteOnly {
			return nil, fmt.Errorf("service: router mode needs a peer list")
		}
		return nil, nil
	}
	ring, err := cluster.New(cc.Seed, cc.VNodes, peers)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if !cc.RouteOnly && !ring.Contains(self) {
		return nil, fmt.Errorf("service: self %q is not one of the peers %v", self, ring.Members())
	}
	maxForwards := int64(cc.MaxForwards)
	if maxForwards <= 0 {
		maxForwards = 256
	}
	cs := &clusterState{
		self:           self,
		routeOnly:      cc.RouteOnly,
		ring:           ring,
		seed:           cc.Seed,
		maxInFlight:    maxForwards,
		forwardTimeout: s.cfg.JobTimeout + 30*time.Second,
	}
	probeClient := &http.Client{Timeout: 5 * time.Second}
	check := func(ctx context.Context, addr string) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := probeClient.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
		return nil
	}
	var tracked []string
	cs.clients = make(map[string]*Client, ring.Size())
	for _, m := range ring.Members() {
		if m == self {
			continue
		}
		tracked = append(tracked, m)
		hdr := http.Header{}
		hdr.Set(headerForwarded, "1")
		cs.clients[m] = &Client{
			BaseURL:    m,
			HTTPClient: &http.Client{Timeout: cs.forwardTimeout},
			MaxRetries: -1, // the owner's shed verdict is relayed, not retried
			Header:     hdr,
		}
	}
	cs.tracker = cluster.NewTracker(tracked, cc.HealthInterval, check)
	return cs, nil
}

// mode names the server's cluster role for /v1/cluster and metrics.
func (c *clusterState) mode() string {
	if c == nil {
		return "single"
	}
	if c.routeOnly {
		return "router"
	}
	return "node"
}

// routeOf decides a normalized asynchronous request's placement: the
// owning peer's address when the request must be forwarded, "" when it
// is served locally.  Synchronous kinds never get here: analyzeStart
// answers them on the entry node (they cost microseconds; forwarding
// would cost more than answering).  The ring hashes req.Key(), the same
// key every node caches under, so each answer is computed exactly once
// fleet-wide.
//
//nob:hotpath
func (s *Server) routeOf(req *Request, forwarded bool) string {
	c := s.cluster
	if c == nil || forwarded {
		return ""
	}
	owner := c.ring.Owner(req.Key())
	if !c.routeOnly && owner == c.self {
		return ""
	}
	return owner
}

// forward relays a request to its owning peer and returns the owner's
// verdict.  On a non-router node the relay goes through the result
// cache's Fill: concurrent forwards of one key share one round trip,
// no miss is counted (the owner computed the document), and a completed
// document stays, so a repeat of the key is a plain result-cache hit.
// Sheds, failures and transport errors describe a moment, not the key:
// they reach the requests that shared the round trip and are not kept.
// Routers keep nothing and forward every request on its own.
func (s *Server) forward(ctx context.Context, owner string, req Request) (Response, int) {
	if s.cluster.routeOnly {
		return s.forwardOnce(ctx, owner, req)
	}
	var resp Response
	var status int
	ran := false
	doc, err := s.results.Fill(req.Key(), func() (*harness.Document, error) {
		ran = true
		resp, status = s.forwardOnce(ctx, owner, req)
		if status != http.StatusOK || resp.Status != string(StatusDone) || resp.Document == nil {
			return nil, &forwardError{resp: resp, status: status}
		}
		return resp.Document, nil
	})
	var fe *forwardError
	switch {
	case ran:
		return resp, status
	case errors.As(err, &fe):
		return fe.resp, fe.status
	case err != nil: // joined a local computation that failed
		return Response{Schema: ResponseSchema, Status: string(StatusFailed), Error: err.Error()}, http.StatusInternalServerError
	}
	return Response{Schema: ResponseSchema, Status: string(StatusDone), Document: doc}, http.StatusOK
}

// forwardError carries an owner's verdict that is not a completed
// document, or a failed round trip, to every request that shared it.
type forwardError struct {
	resp   Response
	status int
}

func (e *forwardError) Error() string { return e.resp.Error }

// forwardOnce performs one round trip to the owner.  It runs under the
// server's base context, not the originating request's, so a client's
// disconnect does not abort an answer other requests may share; it
// carries the ID of the request that started it, so both nodes log that
// request under one ID.  The request is pinned to Wait so the owner
// answers with the document itself; owner-local job IDs never leak
// across nodes.
func (s *Server) forwardOnce(ctx context.Context, owner string, req Request) (Response, int) {
	c := s.cluster
	if c.inFlight.Add(1) > c.maxInFlight {
		c.inFlight.Add(-1)
		s.metrics.countShed("forwards")
		return Response{
			Schema:        ResponseSchema,
			Status:        string(StatusFailed),
			Error:         "too many in-flight forwards; retry later",
			RetryAfterSec: 1,
		}, http.StatusTooManyRequests
	}
	defer c.inFlight.Add(-1)
	cl, ok := c.clients[owner]
	if !ok {
		return Response{Schema: ResponseSchema, Status: string(StatusFailed),
			Error: fmt.Sprintf("no client for ring member %q", owner)}, http.StatusBadGateway
	}
	rid := requestIDFrom(ctx)
	fctx, cancel := context.WithTimeout(context.WithValue(s.baseCtx, ctxKeyRequestID{}, rid), c.forwardTimeout)
	defer cancel()
	rq := req
	rq.Wait = true
	s.metrics.countForward(owner)
	resp, status, retryAfter, err := cl.postAnalyzeOnce(fctx, rq)
	if err != nil {
		s.metrics.countForwardError(owner)
		s.logger.Warn("forward failed", "request_id", rid, "peer", owner, "error", err.Error())
		return Response{
			Schema: ResponseSchema,
			Status: string(StatusFailed),
			Error:  fmt.Sprintf("forwarding to %s: %v", owner, err),
		}, http.StatusBadGateway
	}
	if status == http.StatusTooManyRequests && resp.RetryAfterSec == 0 {
		resp.RetryAfterSec = retryAfter
	}
	return resp, status
}

// ClusterSchema tags the GET /v1/cluster payload.
const ClusterSchema = "nobld/cluster/v1"

// PeerInfo is one peer's advisory health in the cluster view.
type PeerInfo struct {
	Addr string `json:"addr"`
	// Self marks the answering node's own entry.
	Self    bool `json:"self,omitempty"`
	Healthy bool `json:"healthy"`
	// LastSeenSec is seconds since the last successful probe; absent
	// when the peer has never answered.
	LastSeenSec float64 `json:"last_seen_sec,omitempty"`
	Error       string  `json:"error,omitempty"`
	Checks      uint64  `json:"checks"`
}

// Ownership is the ?key= lookup result: which node owns a cache key.
type Ownership struct {
	// Key is the looked-up key as given, which is the string hashed.
	Key   string `json:"key"`
	Owner string `json:"owner"`
	// Local reports whether the answering node owns the key itself.
	Local bool `json:"local"`
}

// ClusterResponse is the GET /v1/cluster payload: the ring
// configuration, which determines key ownership, plus advisory peer
// health.
type ClusterResponse struct {
	Schema string `json:"schema"`
	// Mode is "single", "node" or "router".
	Mode string `json:"mode"`
	Self string `json:"self,omitempty"`
	// Engine is the execution engine the node runs.  It does not affect
	// placement: keys carry no engine.
	Engine  string     `json:"engine"`
	Seed    uint64     `json:"seed"`
	VNodes  int        `json:"vnodes"`
	Members []string   `json:"members,omitempty"`
	Peers   []PeerInfo `json:"peers,omitempty"`
	// Ownership is present when the request carried ?key=.
	Ownership *Ownership `json:"ownership,omitempty"`
}

// handleCluster serves the cluster view.  It answers in every mode —
// a single-node server reports mode "single" with no members, which
// routing clients read as "just talk to me directly".
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.metrics.countRequest("cluster")
	c := s.cluster
	resp := ClusterResponse{
		Schema: ClusterSchema,
		Mode:   c.mode(),
		Engine: engineName,
	}
	if c != nil {
		resp.Self = c.self
		resp.Seed = c.seed
		resp.VNodes = c.ring.VNodes()
		resp.Members = c.ring.Members()
		for _, st := range c.tracker.Status() {
			pi := PeerInfo{Addr: st.Addr, Healthy: st.Healthy, Error: st.LastErr, Checks: st.Checks}
			if !st.LastSeen.IsZero() {
				pi.LastSeenSec = time.Since(st.LastSeen).Seconds()
			}
			resp.Peers = append(resp.Peers, pi)
		}
		if !c.routeOnly {
			resp.Peers = append(resp.Peers, PeerInfo{Addr: c.self, Self: true, Healthy: true})
		}
	}
	if key := r.URL.Query().Get("key"); key != "" {
		own := &Ownership{Key: key}
		if c != nil {
			own.Owner = c.ring.Owner(key)
			own.Local = !c.routeOnly && own.Owner == c.self
		} else {
			own.Local = true
		}
		resp.Ownership = own
	}
	writeJSON(w, http.StatusOK, resp)
}

// registerClusterGauges installs the cluster gauges; called from New
// once the cluster state exists.
func (s *Server) registerClusterGauges() {
	c := s.cluster
	reg := s.metrics.reg
	reg.GaugeFunc("nobld_cluster_ring_size", "cache-owning members of the consistent-hash ring",
		func() float64 { return float64(c.ring.Size()) })
	reg.GaugeFunc("nobld_cluster_peers_healthy", "peers whose last health probe succeeded",
		func() float64 { return float64(c.tracker.Healthy()) })
	reg.GaugeFunc("nobld_cluster_forwards_inflight", "forwarded requests currently in flight",
		func() float64 { return float64(c.inFlight.Load()) })
}

// countForward / countForwardError / countShed are the cluster counters.
// Sheds cover both admission paths: "queue" (the scheduler's high-water
// mark) and "forwards" (the in-flight forward gate).
func (m *metrics) countForward(peer string) {
	m.reg.Counter("nobld_cluster_forwards_total", "requests forwarded to owning peers",
		obs.L("peer", peer)).Inc()
}

func (m *metrics) countForwardError(peer string) {
	m.reg.Counter("nobld_cluster_forward_errors_total", "forwarded requests that failed in transit",
		obs.L("peer", peer)).Inc()
}

func (m *metrics) countShed(reason string) {
	m.reg.Counter("nobld_cluster_sheds_total", "requests shed by admission control",
		obs.L("reason", reason)).Inc()
}
