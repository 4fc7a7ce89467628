package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/cluster"
)

// testNode is one in-process cluster member: a Server plus the httptest
// listener advertising it.
type testNode struct {
	srv *Server
	ts  *httptest.Server
	url string
	c   *Client
}

// newTestCluster boots n nodes sharing one ring.  Construction is
// two-phase because each node's ClusterConfig needs every peer's URL
// before any Server exists: the httptest listeners come up first behind
// an atomic handler indirection (answering 503 until the real handler
// is stored), then the Servers are built against the full peer list.
func newTestCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	handlers := make([]atomic.Value, n)
	for i := range nodes {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "booting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		nodes[i] = &testNode{ts: ts, url: ts.URL}
		t.Cleanup(ts.Close)
	}
	peers := make([]string, n)
	for i, nd := range nodes {
		peers[i] = nd.url
	}
	for i, nd := range nodes {
		cfg := Config{
			Workers: 2,
			Cluster: &ClusterConfig{
				Self:           nd.url,
				Peers:          peers,
				HealthInterval: 50 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nd.srv = srv
		nd.c = NewClient(nd.url)
		handlers[i].Store(srv.Handler())
		t.Cleanup(srv.Close)
	}
	return nodes
}

// ownerIndex finds which node owns the request under the fleet's ring.
func ownerIndex(t *testing.T, nodes []*testNode, req Request) int {
	t.Helper()
	rq := req
	if err := rq.normalize(); err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].srv.cluster.ring.Owner(placement(rq.Key()))
	for i, nd := range nodes {
		if nd.url == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not one of the test nodes", owner)
	return -1
}

// keyOwnedBy searches ring seeds for one that places a normalized trace
// request of size at most maxN on owner, whatever the listeners' ports.
func keyOwnedBy(t *testing.T, peers []string, owner string, maxN int) (Request, uint64) {
	t.Helper()
	for seed := uint64(0); seed < 64; seed++ {
		ring, err := cluster.New(seed, 0, peers)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range alg.All() {
			for _, n := range a.DefaultSizes() {
				req := Request{Algorithm: a.Name, N: n, Kind: KindTrace, Wait: true}
				if err := req.normalize(); err != nil {
					t.Fatal(err)
				}
				if n <= maxN && ring.Owner(placement(req.Key())) == owner {
					return req, seed
				}
			}
		}
	}
	t.Fatal("no ring seed places a registry key on the wanted node")
	return Request{}, 0
}

// TestClusterPlacesKindsByTraceKey: the trace, dbsp and cache kinds of
// one (algorithm, n) are placed on one owner, whatever their machine
// lists, so a fleet computes the key's trace-tier entry once.  Each kind
// enters at a different node; the fleet's trace tiers count one miss.
func TestClusterPlacesKindsByTraceKey(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	ctx := context.Background()
	reqs := []Request{
		{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true, Machines: []MachineSpec{{P: 4, Sigma: 8}}},
		{Algorithm: "fft", N: 64, Kind: KindDBSP, Wait: true},
		{Algorithm: "fft", N: 64, Kind: KindCache, Wait: true},
	}
	owner := ownerIndex(t, nodes, reqs[0])
	for i, req := range reqs {
		if o := ownerIndex(t, nodes, req); o != owner {
			t.Errorf("%s placed on node %d, trace on node %d", req.Kind, o, owner)
		}
		resp, err := nodes[i].c.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != string(StatusDone) || resp.Document == nil {
			t.Fatalf("%s: status %q", req.Kind, resp.Status)
		}
	}
	var misses, hits int64
	for _, nd := range nodes {
		st := nd.srv.traces.Stats()
		misses += st.Misses
		hits += st.Hits
	}
	if misses != 1 || hits != 2 {
		t.Errorf("fleet trace tiers: %d misses, %d hits, want 1 miss and 2 hits", misses, hits)
	}
	// Keys of other kinds are placed as they are.
	net := Request{Kind: KindNetwork, Topology: "fattree", Strategy: "valiant", Seed: 11, Machines: []MachineSpec{{P: 64}}}
	if err := net.normalize(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"trace/fft/n=64/p=4,s=8": "fft/n=64",
		"cache/sort/n=1024":      "sort/n=1024",
		net.Key():                net.Key(),
	} {
		if got := placement(key); got != want {
			t.Errorf("placement(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestClusterExactlyOnceCompute is the acceptance gate: 64 concurrent
// identical requests sprayed round-robin across a 3-node fleet must
// compute the trace exactly once cluster-wide.  Every node's result
// cache and job counters are summed.  Each entry node merges its
// concurrent requests into one forward on its result cache's Fill,
// which counts no miss; the owner coalesces the forwards from all entry
// nodes on its job dedup and result single-flight, so only the owner
// misses, once.
func TestClusterExactlyOnceCompute(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	req := Request{Algorithm: "sort", N: 256, Kind: KindTrace, Wait: true}
	ctx := context.Background()

	const clients = 64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	resps := make([]Response, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = nodes[i%len(nodes)].c.Analyze(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if resps[i].Status != string(StatusDone) || resps[i].Document == nil {
			t.Fatalf("client %d: status %q, document %v", i, resps[i].Status, resps[i].Document != nil)
		}
	}

	var resultMisses, traceMisses, done int64
	for _, nd := range nodes {
		resultMisses += nd.srv.results.Stats().Misses
		traceMisses += nd.srv.traces.Store().Stats().Misses
		done += nd.srv.metrics.jobsDone.Value()
	}
	if resultMisses != 1 {
		t.Errorf("summed result-cache misses = %d, want exactly 1", resultMisses)
	}
	if traceMisses != 1 {
		t.Errorf("summed trace-cache misses = %d, want exactly 1", traceMisses)
	}
	if done != 1 {
		t.Errorf("summed jobs done = %d, want exactly 1", done)
	}
}

// TestClusterForwardFromNonOwner: a request entering at a non-owner is
// forwarded to the owner, a repeat is answered from the non-owner's
// result cache without another hop, and a request already marked
// forwarded is served locally no matter what the ring says (loop
// freedom).
func TestClusterForwardFromNonOwner(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	ctx := context.Background()
	req := Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true}
	idx := ownerIndex(t, nodes, req)
	owner, entry := nodes[idx], nodes[1-idx]

	resp, err := entry.c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != string(StatusDone) || resp.Document == nil {
		t.Fatalf("forwarded request: status %q", resp.Status)
	}
	if m := entry.srv.results.Stats().Misses; m != 0 {
		t.Errorf("non-owner computed locally: %d result-cache misses", m)
	}
	snap, err := entry.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil || snap.Cluster.Forwards[owner.url] == 0 {
		t.Fatalf("no forward recorded toward the owner: %+v", snap.Cluster)
	}

	// Repeat: served from the non-owner's result cache, marked cached,
	// no second forward and no local computation.
	before := snap.Cluster.Forwards[owner.url]
	resp2, err := entry.c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.Status != string(StatusDone) {
		t.Errorf("repeat not served from the result cache: cached=%v status=%q", resp2.Cached, resp2.Status)
	}
	snap, err = entry.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster.Forwards[owner.url] != before {
		t.Errorf("result-cache hit still forwarded: %d -> %d", before, snap.Cluster.Forwards[owner.url])
	}
	if st := entry.srv.results.Stats(); st.Misses != 0 || st.Hits != 1 {
		t.Errorf("non-owner result cache after the repeat: %+v, want 1 hit and no miss", st)
	}

	// Loop freedom: a forwarded-marked request for a non-owned key is
	// answered locally, never re-forwarded.  The node that does not own
	// `other` may already count a miss (and, as the entry above, a
	// forward); the forwarded-marked request must add one miss and no
	// forward.
	other := Request{Algorithm: "sort", N: 64, Kind: KindTrace, Wait: true}
	target := nodes[1-ownerIndex(t, nodes, other)] // does not own `other`
	missesBefore := target.srv.results.Stats().Misses
	targetSnap, err := target.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	forwardsBefore := map[string]int64{}
	if targetSnap.Cluster != nil {
		maps.Copy(forwardsBefore, targetSnap.Cluster.Forwards)
	}
	hdr := http.Header{}
	hdr.Set(headerForwarded, "1")
	fc := &Client{BaseURL: target.url, Header: hdr}
	resp3, err := fc.Analyze(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Status != string(StatusDone) {
		t.Fatalf("forwarded-marked request: status %q", resp3.Status)
	}
	if m := target.srv.results.Stats().Misses; m != missesBefore+1 {
		t.Errorf("forwarded-marked request not computed locally: misses %d -> %d", missesBefore, m)
	}
	targetSnap, err = target.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if targetSnap.Cluster != nil && !maps.Equal(targetSnap.Cluster.Forwards, forwardsBefore) {
		t.Errorf("forwarded-marked request was re-forwarded: %+v -> %+v", forwardsBefore, targetSnap.Cluster.Forwards)
	}
}

// TestClusterForwardKeepsRequestID: a request entering at a non-owner
// keeps its X-Request-ID across the forward hop, so the owner's job
// record carries the ID the caller chose instead of a fresh one.
func TestClusterForwardKeepsRequestID(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	req := Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true}
	ownerIdx := ownerIndex(t, nodes, req)
	rid := fmt.Sprintf("fwd-%d", req.N)
	hdr := http.Header{}
	hdr.Set(headerRequestID, rid)
	entry := &Client{BaseURL: nodes[1-ownerIdx].url, Header: hdr} // does not own req
	resp, err := entry.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != string(StatusDone) {
		t.Fatalf("forwarded request: status %q", resp.Status)
	}
	owner := nodes[ownerIdx].srv.sched
	owner.mu.Lock()
	var ids []string
	for _, j := range owner.jobs {
		ids = append(ids, j.requestID)
	}
	owner.mu.Unlock()
	if len(ids) != 1 || ids[0] != rid {
		t.Errorf("owner job request IDs = %q, want [%q]", ids, rid)
	}
}

// TestClusterForwardsCoalesceAtEntry: concurrent requests for one key
// entering at a non-owner share one forward, so a burst larger than
// MaxForwards is answered in full instead of being shed.  The owner
// holds the forward until every request has been sent; requests that
// arrive after it completes are result-cache hits, so the assertions
// hold however the requests interleave.
func TestClusterForwardsCoalesceAtEntry(t *testing.T) {
	ownerSrv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ownerSrv.Close)
	var forwards atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	ownerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" {
			forwards.Add(1)
			<-release
		}
		ownerSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ownerTS.Close)
	t.Cleanup(unblock) // runs before ownerTS.Close waits on the held forward

	const self = "http://entry.test"
	peers := []string{self, ownerTS.URL}
	req, seed := keyOwnedBy(t, peers, ownerTS.URL, 64)
	entrySrv, err := New(Config{Workers: 1, Cluster: &ClusterConfig{
		Self: self, Peers: peers, Seed: seed, MaxForwards: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(entrySrv.Close)
	entryTS := httptest.NewServer(entrySrv.Handler())
	t.Cleanup(entryTS.Close)

	const burst = 8
	c := &Client{BaseURL: entryTS.URL, MaxRetries: -1} // a shed is an error, not a retry
	var wg sync.WaitGroup
	errs := make([]error, burst)
	resps := make([]Response, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Analyze(context.Background(), req)
		}(i)
	}
	for forwards.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the rest of the burst reach the entry node
	unblock()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resps[i].Status != string(StatusDone) || resps[i].Document == nil {
			t.Fatalf("request %d: status %q", i, resps[i].Status)
		}
	}
	if n := forwards.Load(); n != 1 {
		t.Errorf("%d forwards for %d concurrent requests of one key, want 1", n, burst)
	}
	if st := entrySrv.results.Stats(); st.Misses != 0 {
		t.Errorf("entry node counted %d result-cache misses for a forwarded key", st.Misses)
	}
}

// TestClusterRouterMode: a cacheless router in front of two nodes
// forwards everything and keeps nothing: its result cache stays empty.
func TestClusterRouterMode(t *testing.T) {
	nodes := newTestCluster(t, 2, nil)
	router, err := New(Config{
		Workers: 1,
		Cluster: &ClusterConfig{
			RouteOnly:      true,
			Peers:          []string{nodes[0].url, nodes[1].url},
			HealthInterval: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router.Handler())
	t.Cleanup(func() {
		rts.Close()
		router.Close()
	})
	rc := NewClient(rts.URL)
	ctx := context.Background()

	for _, req := range []Request{
		{Algorithm: "fft", N: 128, Kind: KindTrace, Wait: true},
		{Algorithm: "sort", N: 128, Kind: KindTrace, Wait: true},
	} {
		resp, err := rc.Analyze(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != string(StatusDone) || resp.Document == nil {
			t.Fatalf("routed %s: status %q", req.Algorithm, resp.Status)
		}
	}
	// Synchronous kinds stay local even on a router: they cost less
	// than the hop.
	resp, err := rc.Analyze(ctx, Request{Algorithm: "fft", N: 128, Kind: KindBounds})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != string(StatusDone) {
		t.Fatalf("sync kind on router: status %q", resp.Status)
	}
	if m := router.results.Stats().Misses + router.results.Stats().Hits; m != 0 {
		t.Errorf("router touched its result cache %d times", m)
	}
	if n := router.results.Len(); n != 0 {
		t.Errorf("router stored %d forwarded documents", n)
	}
	snap, err := rc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil || snap.Cluster.Mode != "router" {
		t.Fatalf("router snapshot: %+v", snap.Cluster)
	}
	var forwards int64
	for _, v := range snap.Cluster.Forwards {
		forwards += v
	}
	if forwards < 2 {
		t.Errorf("router forwarded %d requests, want >= 2", forwards)
	}
}

// TestClusterEndpoint: every node serves the same membership view, all
// nodes agree on any key's owner, and peer health converges to up.
func TestClusterEndpoint(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	ctx := context.Background()

	var owners []string
	for _, nd := range nodes {
		view, err := nd.c.Cluster(ctx, "trace/fft/n=512")
		if err != nil {
			t.Fatal(err)
		}
		if view.Schema != ClusterSchema || view.Mode != "node" {
			t.Fatalf("view: schema %q mode %q", view.Schema, view.Mode)
		}
		if len(view.Members) != 3 {
			t.Fatalf("node %s sees %d members", nd.url, len(view.Members))
		}
		if view.Ownership == nil || view.Ownership.Owner == "" {
			t.Fatalf("no ownership lookup in view from %s", nd.url)
		}
		if view.Ownership.Key != "trace/fft/n=512" {
			t.Errorf("ownership key %q, want the looked-up key unchanged", view.Ownership.Key)
		}
		if view.Ownership.Local != (view.Ownership.Owner == nd.url) {
			t.Errorf("local flag disagrees with owner on %s", nd.url)
		}
		owners = append(owners, view.Ownership.Owner)
	}
	for _, o := range owners[1:] {
		if o != owners[0] {
			t.Fatalf("nodes disagree on ownership: %v", owners)
		}
	}

	// Peer health: probes against live /healthz endpoints converge to
	// healthy within a few sweeps.
	deadline := time.Now().Add(5 * time.Second)
	for {
		view, err := nodes[0].c.Cluster(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		healthy := 0
		for _, p := range view.Peers {
			if p.Healthy {
				healthy++
			}
		}
		if healthy == len(view.Peers) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers never converged to healthy: %+v", view.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A single-node server reports mode "single" and local ownership.
	_, sc := newTestServer(t, Config{Workers: 1})
	view, err := sc.Cluster(ctx, "trace/fft/n=512")
	if err != nil {
		t.Fatal(err)
	}
	if view.Mode != "single" || len(view.Members) != 0 {
		t.Fatalf("single-node view: %+v", view)
	}
	if view.Ownership == nil || !view.Ownership.Local {
		t.Fatalf("single-node ownership not local: %+v", view.Ownership)
	}
}

// TestAdmission429RetryAfter saturates a 1-worker node past its
// admission high-water mark and checks both halves of the contract:
// the server answers 429 with a positive integer Retry-After, and the
// client retries transparently until the queue drains.
func TestAdmission429RetryAfter(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueLimit: 64, AdmitQueueHigh: 1})
	ctx := context.Background()

	// Occupy the worker and the queue with slow distinct jobs (sort at
	// n=4096 runs for seconds), then burst more: everything beyond the
	// high-water mark must shed.
	var jobIDs []string
	var shed *http.Response
	for i := 0; i < 6 && shed == nil; i++ {
		// Distinct cache keys via the machine list (sigma varies); the
		// size stays 4096, which sorts for seconds on this engine.
		body := fmt.Sprintf(`{"algorithm":"sort","n":4096,"kind":"trace","machines":[{"p":2,"sigma":%d}]}`, i)
		httpResp, err := http.Post(c.BaseURL+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		switch httpResp.StatusCode {
		case http.StatusAccepted:
			var r Response
			if err := json.NewDecoder(httpResp.Body).Decode(&r); err != nil {
				t.Fatal(err)
			}
			jobIDs = append(jobIDs, r.JobID)
			httpResp.Body.Close()
		case http.StatusTooManyRequests:
			shed = httpResp
		default:
			t.Fatalf("request %d: unexpected HTTP %d", i, httpResp.StatusCode)
		}
	}
	if shed == nil {
		t.Fatal("no request was shed past the high-water mark")
	}
	retryAfter := shed.Header.Get("Retry-After")
	var r Response
	if err := json.NewDecoder(shed.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	shed.Body.Close()
	var sec int
	if _, err := fmt.Sscanf(retryAfter, "%d", &sec); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", retryAfter)
	}
	if r.RetryAfterSec != sec {
		t.Errorf("body retry_after_sec %d != header %q", r.RetryAfterSec, retryAfter)
	}

	// The client half: a retrying Analyze sees the 429, backs off, and
	// succeeds once the saturating jobs are cancelled.
	var retries atomic.Int64
	rc := &Client{
		BaseURL:    c.BaseURL,
		HTTPClient: c.HTTPClient,
		MaxRetries: 20,
		RetryBase:  50 * time.Millisecond,
		RetryMax:   100 * time.Millisecond,
		OnRetry:    func(status int, wait time.Duration) { retries.Add(1) },
	}
	done := make(chan error, 1)
	go func() {
		resp, err := rc.Analyze(ctx, Request{Algorithm: "sort", N: 64, Kind: KindTrace, Wait: true})
		if err == nil && resp.Status != string(StatusDone) {
			err = fmt.Errorf("status %q", resp.Status)
		}
		done <- err
	}()
	// Wait for at least one client-side retry before releasing the
	// queue, so the test proves the backoff path actually engaged.
	deadline := time.Now().Add(5 * time.Second)
	for retries.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if retries.Load() == 0 {
		t.Fatal("client never hit the 429 retry path")
	}
	for _, id := range jobIDs {
		if _, err := c.CancelJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retrying client failed: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("retrying client never completed")
	}
}

// TestBatchPartialPerItemStatus: one bad item inside a batch fails with
// its own 400 code while its neighbors complete, and the counts say so.
func TestBatchPartialPerItemStatus(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	resps, err := analyzeBatch(ctx, c, []Request{
		{Algorithm: "fft", N: 128, Kind: KindTrace, Wait: true},
		{Algorithm: "no-such-algorithm", N: 64, Kind: KindTrace},
		{Algorithm: "fft", N: 128, Kind: KindBounds},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCodes := []int{http.StatusOK, http.StatusBadRequest, http.StatusOK}
	for i, want := range wantCodes {
		if resps[i].Code != want {
			t.Errorf("item %d: code %d, want %d (status %q, error %q)", i, resps[i].Code, want, resps[i].Status, resps[i].Error)
		}
	}
	if resps[1].Error == "" || resps[1].Status != string(StatusFailed) {
		t.Errorf("bad item carries no failure: %+v", resps[1])
	}

	// The wire-level counts match the per-item codes.
	var raw BatchResponse
	body := `{"requests":[{"algorithm":"fft","n":128,"kind":"bounds"},{"algorithm":"nope","n":8}]}`
	httpResp, err := http.Post(c.BaseURL+"/v1/analyze/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if err := json.NewDecoder(httpResp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Succeeded != 1 || raw.Failed != 1 {
		t.Errorf("counts succeeded=%d failed=%d, want 1/1", raw.Succeeded, raw.Failed)
	}
}

// TestClusterBatchRouting: a batch entering one node fans out across
// the fleet server-side and partially succeeds item by item.
func TestClusterBatchRouting(t *testing.T) {
	nodes := newTestCluster(t, 3, nil)
	ctx := context.Background()
	reqs := []Request{
		{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true},
		{Algorithm: "sort", N: 64, Kind: KindTrace, Wait: true},
		{Algorithm: "fft", N: 32, Kind: KindTrace, Wait: true},
		{Algorithm: "bad", N: 64, Kind: KindTrace},
	}
	resps, err := analyzeBatch(ctx, nodes[0].c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resps[i].Code != http.StatusOK || resps[i].Document == nil {
			t.Errorf("item %d: code %d, document %v", i, resps[i].Code, resps[i].Document != nil)
		}
	}
	if resps[3].Code != http.StatusBadRequest {
		t.Errorf("bad item: code %d, want 400", resps[3].Code)
	}
}

// TestForwardRejectsMalformedDocument: an owner's document that fails
// validation becomes a 502 at the entry node, and the entry node's result
// cache keeps nothing, so the next request forwards again.
func TestForwardRejectsMalformedDocument(t *testing.T) {
	for _, m := range malformedResponses(t) {
		t.Run(m.name, func(t *testing.T) {
			owner, analyzes := fakeDaemon(t, m.body)
			var handler atomic.Value
			entry := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				handler.Load().(http.Handler).ServeHTTP(w, r)
			}))
			t.Cleanup(entry.Close)
			// The fake owner answers without computing, so any registry
			// size will do.
			peers := []string{entry.URL, owner.URL}
			req, seed := keyOwnedBy(t, peers, owner.URL, 1<<30)
			srv, err := New(Config{Workers: 1, Cluster: &ClusterConfig{Self: entry.URL, Peers: peers, Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			handler.Store(srv.Handler())
			t.Cleanup(srv.Close)

			c := NewClient(entry.URL)
			for i := 0; i < 2; i++ {
				if _, err := c.Analyze(context.Background(), req); err == nil || !strings.Contains(err.Error(), "HTTP 502") {
					t.Fatalf("request %d: err = %v, want an HTTP 502", i, err)
				}
			}
			if n := srv.results.Len(); n != 0 {
				t.Errorf("entry node's result cache holds %d entries, want 0", n)
			}
			if n := analyzes.Load(); n != 2 {
				t.Errorf("owner received %d analyze requests, want 2 (nothing cached)", n)
			}
		})
	}
}

// TestClusterForwardOutlivesRequester: a forward shared through the
// entry node's result cache lives while any requester waits for it.
// When the requester that started it disconnects, the round trip goes
// on and serves the one still waiting; when every requester leaves, the
// owner sees the forwarded request cancelled and the entry node keeps
// nothing; and closing the entry node ends a forward in flight at once.
func TestClusterForwardOutlivesRequester(t *testing.T) {
	ownerSrv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ownerSrv.Close)
	var gate atomic.Value // chan struct{}: closed to let held forwards through
	gate.Store(make(chan struct{}))
	var forwards atomic.Int64
	cancelled := make(chan struct{}, 8)
	stop := make(chan struct{})
	ownerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" {
			// Reading the body first lets the server notice the
			// entry node hanging up, as the real handler does.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			forwards.Add(1)
			select {
			case <-gate.Load().(chan struct{}):
			case <-stop:
			case <-r.Context().Done():
				cancelled <- struct{}{}
				return
			}
		}
		ownerSrv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ownerTS.Close)
	t.Cleanup(func() { close(stop) }) // runs before ownerTS.Close waits on held forwards

	const self = "http://entry.test"
	peers := []string{self, ownerTS.URL}
	base, seed := keyOwnedBy(t, peers, ownerTS.URL, 64)
	entrySrv, err := New(Config{Workers: 1, Cluster: &ClusterConfig{Self: self, Peers: peers, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(entrySrv.Close)
	entryTS := httptest.NewServer(entrySrv.Handler())
	t.Cleanup(entryTS.Close)
	c := &Client{BaseURL: entryTS.URL, MaxRetries: -1}
	type answer struct {
		resp Response
		err  error
	}
	ask := func(ctx context.Context, req Request) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			resp, err := c.Analyze(ctx, req)
			ch <- answer{resp, err}
		}()
		return ch
	}
	waitForwards := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); forwards.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d forwards reached the owner, want %d", forwards.Load(), n)
			}
		}
	}
	// joined lets a second requester reach the entry node's Fill.
	joined := func() { time.Sleep(100 * time.Millisecond) }

	t.Run("first requester leaves", func(t *testing.T) {
		release := make(chan struct{})
		gate.Store(release)
		ctx, cancel := context.WithCancel(context.Background())
		first := ask(ctx, base)
		waitForwards(1)
		second := ask(context.Background(), base)
		joined()
		cancel()
		if a := <-first; a.err == nil {
			t.Errorf("disconnected requester got %+v, want its context's error", a.resp)
		}
		joined() // the entry node notices the hang-up and leaves the Fill
		select {
		case <-cancelled:
			t.Fatal("the owner saw the shared forward cancelled while a requester still waited")
		default:
		}
		close(release)
		a := <-second
		if a.err != nil || a.resp.Status != string(StatusDone) || a.resp.Document == nil {
			t.Fatalf("waiting requester got %+v, %v; want the document", a.resp, a.err)
		}
		if n := forwards.Load(); n != 1 {
			t.Errorf("%d forwards for one key, want 1", n)
		}
	})

	t.Run("every requester leaves", func(t *testing.T) {
		gate.Store(make(chan struct{}))
		req := base
		req.Kind = KindDBSP
		before := forwards.Load()
		ctx, cancel := context.WithCancel(context.Background())
		answers := []<-chan answer{ask(ctx, req)}
		waitForwards(before + 1)
		answers = append(answers, ask(ctx, req))
		joined()
		cancel()
		for _, ch := range answers {
			<-ch
		}
		select {
		case <-cancelled:
		case <-time.After(10 * time.Second):
			t.Fatal("the owner never saw the abandoned forward cancelled")
		}
		if _, _, ok := entrySrv.results.Peek(req.Key()); ok || entrySrv.results.Len() != 1 {
			t.Errorf("the entry node kept an abandoned forward: Peek ok=%v, Len=%d", ok, entrySrv.results.Len())
		}
	})

	t.Run("entry node closes", func(t *testing.T) {
		gate.Store(make(chan struct{}))
		req := base
		req.Kind = KindCache
		before := forwards.Load()
		pending := ask(context.Background(), req)
		waitForwards(before + 1)
		start := time.Now()
		entrySrv.Close()
		select {
		case a := <-pending:
			if a.err == nil {
				t.Errorf("requester got %+v from a closed node, want an error", a.resp)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a forward in flight outlived the entry node's Close")
		}
		select {
		case <-cancelled:
		case <-time.After(10 * time.Second):
			t.Fatal("the owner never saw the forward of a closed node cancelled")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("Close took %v to end a forward in flight", d)
		}
	})
}
