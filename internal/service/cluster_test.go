package service

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	owner := nodes[0].srv.cluster.ring.Owner(rq.Key())
	for i, nd := range nodes {
		if nd.url == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not one of the test nodes", owner)
	return -1
}

// requestOwnedBy searches the σ of one evaluation machine until it
// finds a trace request the ring places on nodes[want].  Keys that differ
// only in their last characters can cluster on one member of a two-node
// ring, so the search does not stop at a fixed count: σ values of growing
// length lengthen the key until it lands on the wanted node.  Tests that
// can choose their entry node fix the request and use ownerIndex instead.
func requestOwnedBy(t *testing.T, nodes []*testNode, want int) Request {
	t.Helper()
	for sigma := 0; sigma < 1<<20; sigma++ {
		req := Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true,
			Machines: []MachineSpec{{P: 2, Sigma: float64(sigma)}}}
		if ownerIndex(t, nodes, req) == want {
			return req
		}
	}
	t.Fatal("no probed request hashes to the wanted node")
	return Request{}
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
	entrySrv, err := New(Config{Workers: 1, Cluster: &ClusterConfig{
		Self: self, Peers: []string{self, ownerTS.URL}, MaxForwards: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(entrySrv.Close)
	entryTS := httptest.NewServer(entrySrv.Handler())
	t.Cleanup(entryTS.Close)
	req := requestOwnedBy(t, []*testNode{{srv: entrySrv, url: self}, {url: ownerTS.URL}}, 1)

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
	resps, err := c.AnalyzeBatch(ctx, []Request{
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
	resps, err := nodes[0].c.AnalyzeBatch(ctx, reqs)
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
