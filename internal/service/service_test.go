package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/core"
	"netoblivious/internal/harness"
	"netoblivious/internal/obs"
)

func copyBody(dst io.Writer, resp *http.Response) (int64, error) {
	return io.Copy(dst, resp.Body)
}

// newTestServer starts a Server over httptest and returns a client bound
// to it.  Cleanup closes both.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return srv, c
}

// analyzeBatch posts a batch through the client's request path.
// Per-item failures appear in the matching Response while the call
// itself succeeds.
func analyzeBatch(ctx context.Context, c *Client, reqs []Request) ([]Response, error) {
	var out BatchResponse
	err := c.doJSON(ctx, http.MethodPost, "/v1/analyze/batch", BatchRequest{Requests: reqs}, &out)
	return out.Responses, err
}

func TestHealthAndAlgorithms(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	algs, err := c.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs.Algorithms) != len(alg.All()) {
		t.Errorf("algorithms listed %d, registry has %d", len(algs.Algorithms), len(alg.All()))
	}
	if len(algs.Kinds) != len(Kinds()) {
		t.Errorf("kinds listed %d, want %d", len(algs.Kinds), len(Kinds()))
	}
}

func TestSynchronousKinds(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	resp, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 1024, Kind: KindBounds})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" || resp.Document == nil {
		t.Fatalf("bounds response: %+v", resp)
	}
	if resp.Document.Schema != harness.DocumentSchema {
		t.Errorf("document schema %q", resp.Document.Schema)
	}
	if len(resp.Document.Records) != 1 || len(resp.Document.Records[0].Results) == 0 {
		t.Fatal("bounds document carries no results")
	}
	if rows := len(resp.Document.Records[0].Results[0].Rows); rows == 0 {
		t.Error("bounds grid is empty")
	}

	resp, err = c.Analyze(ctx, Request{Kind: KindMachines, Machines: []MachineSpec{{P: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Document.Records[0].Results[0]
	if got := len(res.Rows); got != 6*4 { // 6 presets × log2(16) levels
		t.Errorf("machines grid has %d rows, want 24", got)
	}
}

func TestValidationErrors(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []Request{
		{Algorithm: "no-such", N: 64, Kind: KindTrace},
		{Algorithm: "fft", N: 0, Kind: KindTrace},
		{Algorithm: "fft", N: 64, Kind: Kind("bogus")},
		{Algorithm: "fft", N: 64, Kind: KindTrace, Machines: []MachineSpec{{P: 3}}},
	}
	for _, req := range cases {
		if _, err := c.Analyze(ctx, req); err == nil {
			t.Errorf("request %+v accepted, want validation error", req)
		}
	}
}

func TestAsyncJobLifecycleAndSSE(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	resp, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 512, Kind: KindTrace})
	if err != nil {
		t.Fatal(err)
	}
	if resp.JobID == "" {
		t.Fatalf("async analyze returned no job id: %+v", resp)
	}
	var stages []string
	var seqs []int
	info, err := c.WaitJob(ctx, resp.JobID, func(ev Event) {
		stages = append(stages, ev.Stage)
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusDone {
		t.Fatalf("job finished %s: %+v", info.Status, info.Response)
	}
	if info.Response == nil || info.Response.Document == nil {
		t.Fatal("terminal job carries no document")
	}
	joined := strings.Join(stages, ",")
	for _, want := range []string{"queued", "started", "tracing", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("SSE stream missing stage %q (got %s)", want, joined)
		}
	}
	// The stream is the event log, in order: Seq runs 1..k, each once,
	// and the terminal stage is the last event.
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("streamed seqs %v, want 1..%d each once", seqs, len(seqs))
		}
	}
	if len(stages) == 0 || stages[len(stages)-1] != string(StatusDone) {
		t.Errorf("last streamed stage of %s is not %q", joined, StatusDone)
	}
	// The document is the PR 2 wire format: re-encode/decode round-trips.
	res := info.Response.Document.Records[0].Results[0]
	if len(res.Rows) == 0 || len(res.Checks) == 0 {
		t.Error("trace analysis produced no rows/checks")
	}
}

func TestWaitInlineAndCaching(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := Request{Algorithm: "sort", N: 256, Kind: KindTrace, Wait: true}
	resp, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" || resp.Document == nil {
		t.Fatalf("wait=true response: %+v", resp)
	}
	if resp.Cached {
		t.Error("first request claims cached")
	}
	resp2, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || resp2.Document == nil {
		t.Fatalf("second request not served from cache: %+v", resp2)
	}
	st := srv.results.Stats()
	if st.Misses != 1 || st.Hits < 1 {
		t.Errorf("result cache stats %+v, want exactly 1 miss", st)
	}
}

// TestTraceTierServesEveryKind sends trace, dbsp and cache for one
// (algorithm, n).  The trace tier computes the key once, with a run
// recorded into the cache simulator, on the first request; the other
// two kinds hit it.  That run is the only trace-compute span in the
// probe timeline, and it is marked recorded.
func TestTraceTierServesEveryKind(t *testing.T) {
	probe := obs.NewProbe()
	srv, c := newTestServer(t, Config{Workers: 2, Probe: probe})
	ctx := context.Background()
	for _, kind := range []Kind{KindTrace, KindDBSP, KindCache} {
		resp, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 64, Kind: kind, Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != "done" || resp.Document == nil {
			t.Fatalf("%s: %+v", kind, resp)
		}
	}
	if n := srv.traces.Len(); n != 1 {
		t.Errorf("trace tier holds %d entries, want 1", n)
	}
	if st := srv.traces.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("trace tier stats %+v, want 1 miss + 2 hits", st)
	}
	var b bytes.Buffer
	if err := probe.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	computes, recorded := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "store" && ev.Name == "trace-compute" && ev.Ph == "X" {
			computes++
			if ev.Args["record"] == true {
				recorded++
			}
		}
	}
	if computes != 1 || recorded != 1 {
		t.Errorf("%d trace-compute spans (%d recorded), want 1 (recorded)", computes, recorded)
	}
}

// TestKindOrderIndependent: the trace, dbsp and cache kinds share one
// trace-tier entry, so no kind's document may depend on which kind
// computed it.  Each kind's document is byte-identical whether it
// reaches a fresh server first, last or alone.
func TestKindOrderIndependent(t *testing.T) {
	ctx := context.Background()
	kinds := []Kind{KindTrace, KindDBSP, KindCache}
	for _, name := range []string{"fft", "sort", "stencil2"} {
		for _, kind := range kinds {
			var others []Kind
			for _, k := range kinds {
				if k != kind {
					others = append(others, k)
				}
			}
			orders := map[string][]Kind{
				"alone": {kind},
				"first": append([]Kind{kind}, others...),
				"last":  append(append([]Kind(nil), others...), kind),
			}
			var want []byte
			for _, order := range []string{"alone", "first", "last"} {
				_, c := newTestServer(t, Config{Workers: 1})
				var got []byte
				for _, k := range orders[order] {
					resp, err := c.Analyze(ctx, Request{Algorithm: name, N: 8, Kind: k, Wait: true})
					if err != nil {
						t.Fatal(err)
					}
					if resp.Status != "done" || resp.Document == nil {
						t.Fatalf("%s %s: %+v", name, k, resp)
					}
					if k == kind {
						got, _ = json.Marshal(resp.Document)
					}
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s %s: document %s differs from alone:\n%s\n%s", name, kind, order, got, want)
				}
			}
		}
	}
}

// TestCacheKindIgnoresMachines: the miss curve reads no machine, so a
// cache request with a machine list is answered from the entry of the
// same request without one.  An invalid machine is still refused.
func TestCacheKindIgnoresMachines(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	req := Request{Algorithm: "fft", N: 256, Kind: KindCache, Wait: true}
	first, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Machines = []MachineSpec{{P: 16, Sigma: 4}}
	second, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Document == nil {
		t.Fatalf("cache request with machines not served from cache: %+v", second)
	}
	a, _ := json.Marshal(first.Document.Records)
	b, _ := json.Marshal(second.Document.Records)
	if !bytes.Equal(a, b) {
		t.Errorf("records differ:\n%s\n%s", a, b)
	}
	req.Machines = []MachineSpec{{P: 3}}
	if _, err := c.Analyze(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("invalid machine p=3: %v, want HTTP 400", err)
	}
}

// TestCacheKindMatchesInMemoryReplay: the trace tier streams the key's
// run into the simulator; the rows the cache kind serves must equal
// those of the same run recorded here into a CurveSim of the sweep.
func TestCacheKindMatchesInMemoryReplay(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	for _, k := range []core.TraceKey{{Algorithm: "fft", N: 256}, {Algorithm: "sort", N: 64}, {Algorithm: "stencil2", N: 8}, {Algorithm: "stencil1", N: 256}} {
		a, _ := alg.ByName(k.Algorithm)
		cs, err := cachesim.NewCurveSim(1, harness.CacheCtxWords, harness.CacheLineWords, harness.CacheSweepSizes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(ctx, alg.Spec{Record: true, Sink: cs}, k.N); err != nil {
			t.Fatal(err)
		}
		ref := &harness.Result{}
		for i, m := range harness.CacheSweepSizes {
			ref.AddRow(m, harness.CacheLineWords, cs.Misses()[i], float64(cs.Misses()[i])/float64(cs.Accesses()))
		}
		resp, err := c.Analyze(ctx, Request{Algorithm: k.Algorithm, N: k.N, Kind: KindCache, Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != "done" || resp.Document == nil {
			t.Fatalf("%s: %+v", k, resp)
		}
		got, _ := json.Marshal(resp.Document.Records[0].Results[0].Rows)
		want, _ := json.Marshal(ref.Rows)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served rows %s, direct recording %s", k, got, want)
		}
	}
}

// memoryChildEnv marks a child process of TestCacheKindMemoryBounded:
// set, the test measures one kind in this process; unset, it re-executes
// the test binary for each kind and reads the child's verdict.
const memoryChildEnv = "NOBLD_MEMORY_TEST_CHILD"

// TestCacheKindMemoryBounded: a job that misses the trace tier records
// its run into the cache simulator, so it holds the engine state plus
// one superstep, not the recorded trace.  A cache and a trace request
// each miss on a fresh server; the sampled peak of HeapAlloc (garbage
// included) over the post-GC baseline stays under 16 MiB for stencil1
// n=256, whose in-memory recording alone holds about 90 MiB.  Each kind
// runs in a child process of its own, so the baseline and the samples
// see that one request and no garbage or GC pacing left by other tests.
func TestCacheKindMemoryBounded(t *testing.T) {
	for _, kind := range []Kind{KindCache, KindTrace} {
		t.Run(string(kind), func(t *testing.T) {
			if os.Getenv(memoryChildEnv) != "" {
				measureJobPeakHeap(t, kind)
				return
			}
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCacheKindMemoryBounded$/^"+string(kind)+"$", "-test.v", "-test.count=1")
			cmd.Env = append(os.Environ(), memoryChildEnv+"=1")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child process: %v\n%s", err, out)
			}
			i := bytes.Index(out, []byte("job peak heap"))
			if i < 0 {
				t.Fatalf("child process measured nothing:\n%s", out)
			}
			line, _, _ := bytes.Cut(out[bytes.LastIndexByte(out[:i], '\n')+1:], []byte("\n"))
			t.Logf("child process: %s", bytes.TrimSpace(line))
		})
	}
}

// measureJobPeakHeap runs one request of kind on a fresh server and
// fails when its sampled peak heap exceeds 16 MiB over the baseline.
func measureJobPeakHeap(t *testing.T, kind Kind) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var mx uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			mx = max(mx, ms.HeapAlloc)
			select {
			case <-done:
				peak <- mx
				return
			case <-tick.C:
			}
		}
	}()
	resp, err := c.Analyze(ctx, Request{Algorithm: "stencil1", N: 256, Kind: kind, Wait: true})
	close(done)
	mx := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "done" {
		t.Fatalf("%s job finished %s: %s", kind, resp.Status, resp.Error)
	}
	delta := int64(mx) - int64(baseline)
	if delta > 16<<20 {
		t.Errorf("%s job peak heap %.1f MiB over baseline, want under 16 MiB", kind, float64(delta)/(1<<20))
	}
	t.Logf("%s job peak heap %.1f MiB over baseline", kind, float64(delta)/(1<<20))
}

// TestEveryAlgorithmEveryAsyncKind exercises the full registry surface
// the service exposes: every algorithm through trace analysis, plus every
// async kind for one algorithm.
func TestEveryAlgorithmEveryAsyncKind(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	_, c := newTestServer(t, Config{Workers: 4, JobTimeout: 2 * time.Minute})
	ctx := context.Background()
	ns := map[string]int{
		"matmul": 256, "matmul-space": 256,
		"stencil1": 64, "stencil2": 16,
	}
	var reqs []Request
	for _, a := range alg.All() {
		n, ok := ns[a.Name]
		if !ok {
			n = 256
		}
		reqs = append(reqs, Request{Algorithm: a.Name, N: n, Kind: KindTrace, Wait: true})
	}
	for _, kind := range []Kind{KindDBSP, KindCache, KindNetwork} {
		reqs = append(reqs, Request{Algorithm: "fft", N: 256, Kind: kind, Wait: true, Machines: []MachineSpec{{P: 16}}})
	}
	resps, err := analyzeBatch(ctx, c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		if resp.Status != "done" || resp.Document == nil {
			t.Errorf("request %d (%s %s): status %s err %q", i, reqs[i].Kind, reqs[i].Algorithm, resp.Status, resp.Error)
		}
	}
}

// TestNetworkTopologyStrategySelection is an acceptance criterion of the
// routing-engine PR: the network analysis is steerable per request — any
// registered topology family and routing strategy, end to end through
// POST /v1/analyze.
func TestNetworkTopologyStrategySelection(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	for _, tc := range []struct{ topology, strategy string }{
		{"fattree", "valiant"},
		{"torus3d", "shortest-path"},
		{"hypercube", "valiant"},
	} {
		req := Request{
			Kind: KindNetwork, Wait: true,
			Topology: tc.topology, Strategy: tc.strategy, Seed: 11,
			Machines: []MachineSpec{{P: 64}},
		}
		resp, err := c.Analyze(ctx, req)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.topology, tc.strategy, err)
		}
		if resp.Status != "done" || resp.Document == nil {
			t.Fatalf("%s/%s: %+v", tc.topology, tc.strategy, resp)
		}
		res := resp.Document.Records[0].Results[0]
		if len(res.Rows) == 0 {
			t.Fatalf("%s/%s: empty grid", tc.topology, tc.strategy)
		}
		// Every row names the requested topology family and strategy.
		for _, row := range res.Rows {
			if !strings.Contains(row[0].Str, tc.topology[:4]) {
				t.Errorf("row topology %q does not match requested %q", row[0].Str, tc.topology)
			}
			if row[1].Str != tc.strategy {
				t.Errorf("row strategy %q, want %q", row[1].Str, tc.strategy)
			}
		}
		for _, check := range res.Checks {
			if !check.Pass {
				t.Errorf("%s/%s: failed check %s (%s)", tc.topology, tc.strategy, check.Name, check.Detail)
			}
		}
	}
	// The registry is discoverable.
	algs, err := c.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(algs.Topologies) != 5 || len(algs.Strategies) != 2 {
		t.Errorf("algorithms response lists %v / %v", algs.Topologies, algs.Strategies)
	}
	// Distinct strategies are distinct cache entries: the valiant run
	// above must not shadow a shortest-path run of the same grid.
	base := Request{Kind: KindNetwork, Wait: true, Machines: []MachineSpec{{P: 64}}, Topology: "hypercube"}
	spResp, err := c.Analyze(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if spResp.Cached {
		t.Error("shortest-path run shadowed by the valiant cache entry")
	}
}

// TestNetworkValidation: unknown or size-invalid topology/strategy
// selections and machines above maxNetworkP fail fast with 400s before
// any job is queued, and the fields are rejected on non-network kinds.
func TestNetworkValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []Request{
		{Kind: KindNetwork, Topology: "moebius"},
		{Kind: KindNetwork, Strategy: "hot-potato"},
		{Kind: KindNetwork, Topology: "torus3d", Machines: []MachineSpec{{P: 16}}}, // 16 is not a cube
		{Kind: KindNetwork, Seed: -3},
		{Kind: KindNetwork, Machines: []MachineSpec{{P: 2 * maxNetworkP}}},
		{Kind: KindNetwork, Topology: "ring", Machines: []MachineSpec{{P: 64}, {P: 2 * maxNetworkP}}},
		{Kind: KindTrace, Algorithm: "fft", N: 256, Topology: "ring"},
		{Kind: KindBounds, Algorithm: "fft", N: 256, Strategy: "valiant"},
	}
	for _, req := range cases {
		_, err := c.Analyze(ctx, req)
		if err == nil {
			t.Errorf("request %+v accepted, want validation error", req)
		} else if !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("request %+v: %v, want HTTP 400", req, err)
		}
	}
	if running, done := jobCounts(t, c); running+done != 0 {
		t.Errorf("rejected requests left jobs behind (running %d, done %d)", running, done)
	}
}

// TestBatchRepeatFullyCached is an acceptance criterion: a repeated batch
// request is answered entirely from cache, verified via the metrics
// counters.
func TestBatchRepeatFullyCached(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	batch := []Request{
		{Algorithm: "fft", N: 256, Kind: KindTrace, Wait: true},
		{Algorithm: "sort", N: 256, Kind: KindTrace, Wait: true},
		{Algorithm: "prefix-tree", N: 256, Kind: KindDBSP, Wait: true, Machines: []MachineSpec{{P: 16}}},
	}
	first, err := analyzeBatch(ctx, c, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range first {
		if resp.Status != "done" {
			t.Fatalf("batch entry %d failed: %+v", i, resp)
		}
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := analyzeBatch(ctx, c, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range second {
		if resp.Status != "done" || !resp.Cached {
			t.Errorf("repeated batch entry %d not cached: %+v", i, resp)
		}
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if misses := after.Results.Misses - before.Results.Misses; misses != 0 {
		t.Errorf("repeated batch caused %d cache misses, want 0", misses)
	}
	if hits := after.Results.Hits - before.Results.Hits; hits != int64(len(batch)) {
		t.Errorf("repeated batch recorded %d hits, want %d", hits, len(batch))
	}
}

// TestBatchLanesKeepItemOrder sends more waited items than a batch
// serves at once, each asking for its own σ, to a server with two
// workers: every item comes back 200 with the document of its own
// request, in order.
func TestBatchLanesKeepItemOrder(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	batch := make([]Request, 3*batchLanes)
	for i := range batch {
		batch[i] = Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true,
			Machines: []MachineSpec{{P: 2, Sigma: float64(i) + 0.5}}}
	}
	resps, err := analyzeBatch(ctx, c, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(batch) {
		t.Fatalf("%d responses for %d items", len(resps), len(batch))
	}
	for i, resp := range resps {
		if resp.Code != http.StatusOK || resp.Document == nil {
			t.Fatalf("item %d: code %d, status %q, error %q", i, resp.Code, resp.Status, resp.Error)
		}
		rows := resp.Document.Records[0].Results[0].Rows
		if len(rows) != 1 || rows[0][1].Float != batch[i].Machines[0].Sigma {
			t.Fatalf("item %d carries rows %v, want the one machine σ=%g", i, rows, batch[i].Machines[0].Sigma)
		}
	}
}

// TestConcurrentCachedLoad is the headline acceptance criterion: >= 500
// concurrent /v1/analyze requests for one cached key, hit rate > 95%,
// no races (run under -race in CI).
func TestConcurrentCachedLoad(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	req := Request{Algorithm: "fft", N: 256, Kind: KindTrace}
	// Prime the key.
	prime := req
	prime.Wait = true
	if resp, err := c.Analyze(ctx, prime); err != nil || resp.Status != "done" {
		t.Fatalf("priming failed: %+v, %v", resp, err)
	}

	const clients = 500
	var wg sync.WaitGroup
	var ok, cached atomic.Int64
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Analyze(ctx, req)
			if err != nil {
				errs <- err
				return
			}
			if resp.Status == "done" && resp.Document != nil {
				ok.Add(1)
			}
			if resp.Cached {
				cached.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent analyze failed: %v", err)
	}
	if ok.Load() != clients {
		t.Fatalf("only %d/%d requests completed with a document", ok.Load(), clients)
	}
	if cached.Load() != clients {
		t.Errorf("only %d/%d requests were served from cache", cached.Load(), clients)
	}
	st := srv.results.Stats()
	if rate := st.HitRate(); rate <= 0.95 {
		t.Errorf("cache hit rate %.3f, want > 0.95 (%+v)", rate, st)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Results.HitRate <= 0.95 {
		t.Errorf("/metrics hit rate %.3f, want > 0.95", snap.Results.HitRate)
	}
	if snap.Requests["analyze"] < clients {
		t.Errorf("request counter %d < %d", snap.Requests["analyze"], clients)
	}
}

// TestSingleFlightDedupOfInflightRequests: concurrent identical requests
// while the key is cold produce exactly one job and one computation.
func TestSingleFlightDedupOfInflightRequests(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := Request{Algorithm: "bitonic", N: 1024, Kind: KindTrace, Wait: true}
	const clients = 24
	var wg sync.WaitGroup
	ids := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Analyze(ctx, req)
			if err != nil {
				t.Errorf("analyze: %v", err)
				return
			}
			if resp.Status != "done" || resp.Document == nil {
				t.Errorf("response %d: %+v", i, resp)
			}
		}(i)
	}
	wg.Wait()
	_ = ids
	if misses := srv.results.Stats().Misses; misses != 1 {
		t.Errorf("computation ran %d times for one key, want 1", misses)
	}
	if done := srv.metrics.jobsDone.Value(); done != 1 {
		t.Errorf("%d jobs completed for one key, want 1 (dedup broken)", done)
	}
}

// TestJobCancellation cancels a running job of each engine-driven kind
// and asserts it terminates quickly with cancelled status and does not
// poison the cache.
func TestJobCancellation(t *testing.T) {
	for _, kind := range []Kind{KindTrace, KindCache} {
		t.Run(string(kind), func(t *testing.T) {
			srv, c := newTestServer(t, Config{Workers: 1})
			ctx := context.Background()
			// sort at n=4096 runs for seconds here: long enough to cancel.
			req := Request{Algorithm: "sort", N: 4096, Kind: kind}
			resp, err := c.Analyze(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.JobID == "" {
				t.Fatalf("no job id: %+v", resp)
			}
			// Give the worker a moment to start, then cancel.
			time.Sleep(20 * time.Millisecond)
			if _, err := c.CancelJob(ctx, resp.JobID); err != nil {
				t.Fatal(err)
			}
			waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			info, err := c.WaitJob(waitCtx, resp.JobID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status != StatusCancelled && info.Status != StatusDone {
				t.Fatalf("cancelled job finished %s", info.Status)
			}
			if info.Status == StatusDone {
				t.Skip("job completed before the cancel landed")
			}
			if _, _, ok := srv.results.Peek(req.Key()); ok {
				t.Fatal("the cancelled job's outcome was memoized")
			}
			// The key must not be poisoned: a fresh identical request succeeds.
			req.Wait = true
			resp2, err := c.Analyze(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if resp2.Status != "done" || resp2.Document == nil || resp2.Cached {
				t.Fatalf("post-cancel request: %+v", resp2)
			}
		})
	}
}

// waitForStage polls a job until its event log holds stage, and fails
// the test if the job turns terminal first.
func waitForStage(t *testing.T, c *Client, id, stage string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range info.Events {
			if ev.Stage == stage {
				return
			}
		}
		if info.Status.Terminal() {
			t.Fatalf("job %s finished %s before stage %q", id, info.Status, stage)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached stage %q", id, stage)
}

// TestCancelledJobLeavesDedup: a DELETE of a running job takes it out of
// the dedup index at once, so an identical request sent right after
// starts a fresh job and gets the document, not the doomed job's
// cancellation.
func TestCancelledJobLeavesDedup(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	// sort at n=4096 runs for seconds here: long enough to cancel.
	req := Request{Algorithm: "sort", N: 4096, Kind: KindTrace}
	resp, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitForStage(t, c, resp.JobID, "tracing")
	if _, err := c.CancelJob(ctx, resp.JobID); err != nil {
		t.Fatal(err)
	}
	req.Wait = true
	again, err := c.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != string(StatusDone) || again.Document == nil {
		t.Fatalf("request after DELETE answered %q (%s), want a document", again.Status, again.Error)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if info, err := c.WaitJob(waitCtx, resp.JobID, nil); err != nil || info.Status != StatusCancelled {
		t.Errorf("deleted job finished %s (%v), want cancelled", info.Status, err)
	}
}

// startSharedTierRun submits a trace job that starts the trace-tier run
// of sort n=4096 (the tier's miss) and then a dbsp job that joins that
// run (the tier's hit), and returns both job IDs.  The tracing stage is
// published just before the tier lookup, so it watches the tier's
// counters instead: only after the trace job's miss may the dbsp job
// join as a hit, so a DELETE then always lands on a run the two share.
func startSharedTierRun(t *testing.T, srv *Server, c *Client) (traceJob, dbspJob string) {
	t.Helper()
	waitForTier := func(what string, ok func(core.StoreStats) bool) {
		t.Helper()
		for deadline := time.Now().Add(time.Minute); !ok(srv.traces.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: trace tier at %+v", what, srv.traces.Stats())
			}
		}
	}
	ctx := context.Background()
	tr, err := c.Analyze(ctx, Request{Algorithm: "sort", N: 4096, Kind: KindTrace})
	if err != nil {
		t.Fatal(err)
	}
	waitForTier("trace job never started the run", func(st core.StoreStats) bool { return st.Misses >= 1 })
	db, err := c.Analyze(ctx, Request{Algorithm: "sort", N: 4096, Kind: KindDBSP})
	if err != nil {
		t.Fatal(err)
	}
	waitForTier("dbsp job never joined the run", func(st core.StoreStats) bool { return st.Hits >= 1 })
	return tr.JobID, db.JobID
}

// waitStatus waits for a job's terminal state and fails unless it is
// want.
func waitStatus(t *testing.T, c *Client, id string, want JobStatus) JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	info, err := c.WaitJob(ctx, id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != want {
		t.Errorf("job %s finished %s, want %s: %+v", id, info.Status, want, info.Response)
	}
	return info
}

// TestSharedTierRunSurvivesCancel: deleting the trace job that started
// a trace-tier run leaves the run to the dbsp job that joined it, which
// still waits for it: the dbsp job ends done from that one run, with no
// retry, and the deleted job ends cancelled.
func TestSharedTierRunSurvivesCancel(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	traceJob, dbspJob := startSharedTierRun(t, srv, c)
	if _, err := c.CancelJob(context.Background(), traceJob); err != nil {
		t.Fatal(err)
	}
	info := waitStatus(t, c, dbspJob, StatusDone)
	var stages []string
	for _, ev := range info.Events {
		stages = append(stages, ev.Stage)
	}
	if want := []string{"queued", "started", "tracing", "folding", "done"}; !slices.Equal(stages, want) {
		t.Errorf("dbsp job's stages %v, want %v: no retry of the shared run", stages, want)
	}
	waitStatus(t, c, traceJob, StatusCancelled)
	if st := srv.traces.Stats(); st.Misses != 1 {
		t.Errorf("trace tier at %+v after both jobs, want 1 miss: the shared run ran again", st)
	}
}

// TestJoinedJobCancels: a job that joined another job's trace-tier run
// can be cancelled: deleting the dbsp job ends it cancelled while the
// trace job that started the run still ends done, from that one run.
func TestJoinedJobCancels(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 2})
	traceJob, dbspJob := startSharedTierRun(t, srv, c)
	if _, err := c.CancelJob(context.Background(), dbspJob); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c, dbspJob, StatusCancelled)
	waitStatus(t, c, traceJob, StatusDone)
	if st := srv.traces.Stats(); st.Misses != 1 {
		t.Errorf("trace tier at %+v after both jobs, want 1 miss", st)
	}
}

// TestJobTimeout: a job exceeding the configured timeout fails with a
// deadline error instead of running forever.
func TestJobTimeout(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	ctx := context.Background()
	resp, err := c.Analyze(ctx, Request{Algorithm: "sort", N: 4096, Kind: KindTrace})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	info, err := c.WaitJob(waitCtx, resp.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status == StatusDone {
		t.Skip("host fast enough to beat a 30ms timeout")
	}
	if info.Status != StatusFailed {
		t.Fatalf("timed-out job finished %s", info.Status)
	}
	if info.Response == nil || !strings.Contains(info.Response.Error, "deadline") {
		t.Errorf("timeout error not surfaced: %+v", info.Response)
	}
}

// TestQueueLimitRejects: enqueues beyond the bound are rejected and
// counted.
func TestQueueLimitRejects(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueLimit: 1})
	ctx := context.Background()
	// Occupy the single worker and fill the queue of one.
	distinct := []Request{
		{Algorithm: "sort", N: 4096, Kind: KindTrace},
		{Algorithm: "fft", N: 1024, Kind: KindTrace},
		{Algorithm: "bitonic", N: 1024, Kind: KindTrace},
		{Algorithm: "prefix-tree", N: 1024, Kind: KindTrace},
		{Algorithm: "broadcast-tree", N: 1024, Kind: KindTrace},
	}
	rejected := 0
	for _, req := range distinct {
		if _, err := c.Analyze(ctx, req); err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("unexpected error: %v", err)
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("no request was rejected by a queue of capacity 1")
	}
	if srv.metrics.jobsRejected.Value() == 0 {
		t.Error("rejections not counted")
	}
}

// TestPriorityOrdering: the scheduler pops by priority (higher first),
// FIFO within a priority.
func TestPriorityOrdering(t *testing.T) {
	sched := newScheduler(0, 0)
	keys := []struct {
		key string
		pri int
	}{
		{"a", 0}, {"b", 5}, {"c", 5}, {"d", 9},
	}
	for _, k := range keys {
		if _, created, err := sched.enqueue(k.key, Request{Priority: k.pri}, ""); err != nil || !created {
			t.Fatalf("enqueue %s: created=%v err=%v", k.key, created, err)
		}
	}
	var got []string
	for range keys {
		got = append(got, sched.next().key)
	}
	want := "d,b,c,a"
	if joined := strings.Join(got, ","); joined != want {
		t.Errorf("pop order %s, want %s", joined, want)
	}
	// Dedup: re-enqueueing an in-flight key joins the existing job.
	j1, created, _ := sched.enqueue("x", Request{}, "")
	if !created {
		t.Fatal("fresh key not created")
	}
	j2, created, _ := sched.enqueue("x", Request{}, "")
	if created || j1 != j2 {
		t.Error("in-flight dedup did not return the existing job")
	}
	// A joining duplicate with higher priority raises the queued job so
	// the joiner is not stuck behind the original's priority.
	y, _, _ := sched.enqueue("y", Request{Priority: 1}, "")
	sched.enqueue("z", Request{Priority: 5}, "")
	if _, created, _ := sched.enqueue("y", Request{Priority: 9}, ""); created {
		t.Fatal("duplicate treated as fresh")
	}
	if first := sched.next(); first != y {
		t.Errorf("pop after priority bump = %s, want the raised job %s", first.key, y.key)
	}
}

// TestJobRetentionBounded: terminal jobs are evicted beyond the
// retention bound, so the id registry cannot grow forever in a
// long-running daemon; live jobs are never evicted.
func TestJobRetentionBounded(t *testing.T) {
	sched := newScheduler(0, 0)
	sched.retention = 3
	for i := 0; i < 10; i++ {
		j, _, err := sched.enqueue(string(rune('a'+i)), Request{}, "")
		if err != nil {
			t.Fatal(err)
		}
		sched.next()
		sched.remove(j)
		j.finish(StatusDone, &Response{}, http.StatusOK)
		sched.retire(j)
	}
	sched.mu.Lock()
	kept := len(sched.jobs)
	sched.mu.Unlock()
	if kept != 3 {
		t.Errorf("registry keeps %d terminal jobs, want 3", kept)
	}
	// The most recent ids survive, the oldest are gone.
	if _, ok := sched.lookup("j00000010"); !ok {
		t.Error("newest job evicted")
	}
	if _, ok := sched.lookup("j00000001"); ok {
		t.Error("oldest job not evicted")
	}
}

func TestMetricsTextFormat(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Analyze(ctx, Request{Algorithm: "fft", N: 256, Kind: KindBounds}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.http().Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := copyBody(buf, resp); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"nobld_requests_total", "nobld_cache_hits_total", "nobld_queue_depth", "nobld_latency_ms_bucket"} {
		if !strings.Contains(body, want) {
			t.Errorf("text metrics missing %q", want)
		}
	}
}

// TestSizeValidationRejectsEarly is an acceptance check of the algorithm
// API: a request whose n violates the algorithm's size constraint is
// rejected with HTTP 400 before any job is queued, and the error body
// carries the algorithm's size doc so the client can self-correct.
func TestSizeValidationRejectsEarly(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	post := func(body string) (int, string) { return postBody(t, c, "/v1/analyze", body) }
	// matmul needs the square of a power of two; 6 is neither.
	status, body := post(`{"algorithm":"matmul","n":6,"kind":"trace","wait":true}`)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid size: status %d, want 400 (body %s)", status, body)
	}
	a, ok := alg.ByName("matmul")
	if !ok {
		t.Fatal("matmul missing from registry")
	}
	if !strings.Contains(body, a.SizeDoc) {
		t.Errorf("400 body does not carry the size doc %q: %s", a.SizeDoc, body)
	}
	// No job may have been queued or run for the rejected request.
	if running, done := jobCounts(t, c); running+done != 0 {
		t.Errorf("rejected request left jobs behind (running %d, done %d)", running, done)
	}
	// The smallest invalid sizes get the same typed treatment (the
	// generic n >= 2 floor must not shadow the size doc).
	status, body = post(`{"algorithm":"matmul","n":1,"kind":"trace","wait":true}`)
	if status != http.StatusBadRequest || !strings.Contains(body, a.SizeDoc) {
		t.Errorf("n=1: status %d body %s, want 400 with the size doc", status, body)
	}
	// The same n on an algorithm that accepts it goes through.
	status, body = post(`{"algorithm":"fft","n":8,"kind":"trace","wait":true}`)
	if status != http.StatusOK {
		t.Errorf("valid size: status %d (body %s)", status, body)
	}
}

// TestRequestBodyLimit: a valid request padded past maxRequestBytes,
// sent alone or in a batch, is refused with 413 and the usual JSON error
// before any job runs.  The same request unpadded is served.
func TestRequestBodyLimit(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	const req = `{"algorithm":"fft","n":8,"kind":"trace","wait":true}`
	pad := strings.Repeat(" ", maxRequestBytes) // insignificant JSON whitespace
	for path, body := range map[string]string{
		"/v1/analyze":       `{"algorithm":"fft",` + pad + `"n":8,"kind":"trace","wait":true}`,
		"/v1/analyze/batch": `{"requests":[` + pad + req + `]}`,
	} {
		status, resp := postBody(t, c, path, body)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d, want 413 (body %.200s)", path, len(body), status, resp)
			continue
		}
		var e apiError
		if err := json.Unmarshal([]byte(resp), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 413 body is not a JSON error: %q (%v)", path, resp, err)
		}
	}
	if running, done := jobCounts(t, c); running+done != 0 {
		t.Errorf("oversized requests ran jobs (running %d, done %d)", running, done)
	}
	if status, resp := postBody(t, c, "/v1/analyze", req); status != http.StatusOK {
		t.Errorf("unpadded request: status %d (body %s)", status, resp)
	}
}

// postBody POSTs a raw JSON body to the server and returns the status
// and response body.
func postBody(t *testing.T, c *Client, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyBody(&sb, resp); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

// jobCounts reads the scheduler's running/done job counters via the
// metrics endpoint.
func jobCounts(t *testing.T, c *Client) (running, done int) {
	t.Helper()
	snap, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return int(snap.Jobs.Running), int(snap.Jobs.Done)
}

// TestWriteJSONMatchesEncoder: the pooled encoder writes the bytes a
// fresh compact json.Encoder writes, with a matching Content-Length,
// including after the pooled buffer served a larger response.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	res := &harness.Result{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	res.AddRow(1, 2.5)
	res.AddRow("s", 1e-9)
	big := Response{Schema: ResponseSchema, Status: "done", Document: &harness.Document{
		Schema: harness.DocumentSchema, Records: []harness.Record{{ID: "x", Results: []*harness.Result{res}}}}}
	for _, v := range []any{big, apiError{Error: "small"}, big} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusTeapot, v)
		if rec.Code != http.StatusTeapot || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("writeJSON wrote %d %q, want %q", rec.Code, rec.Body.Bytes(), want.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length %q, want %d", got, want.Len())
		}
	}
}

// BenchmarkTraceKindMiss times a trace-kind request for sort n=1024 on a
// fresh server, so every iteration misses the trace tier and pays the
// key's engine run.  No bench workload sends trace-only traffic; this
// is the reproducible cost of a trace-only miss.
//
//	go test -run '^$' -bench '^BenchmarkTraceKindMiss$' -benchtime 20x ./internal/service
func BenchmarkTraceKindMiss(b *testing.B) {
	ctx := context.Background()
	req := Request{Algorithm: "sort", N: 1024, Kind: KindTrace, Wait: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		c := NewClient(ts.URL)
		c.HTTPClient = ts.Client()
		b.StartTimer()
		resp, err := c.Analyze(ctx, req)
		b.StopTimer()
		ts.Close()
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != "done" || resp.Cached {
			b.Fatalf("trace request: status %s, cached %v", resp.Status, resp.Cached)
		}
	}
}

// malformedResponse is a done Response whose document breaks a
// structural invariant the renderers rely on.
type malformedResponse struct {
	name string
	body []byte
}

// malformedResponses returns a document with a row narrower than its
// columns and one with a null result: decoded without validation, each
// panics Result.Text.
func malformedResponses(t *testing.T) []malformedResponse {
	t.Helper()
	res := &harness.Result{ID: "trace", Title: "ragged", Columns: []string{"a", "b"}}
	res.AddRow(1, 2)
	res.Rows[0] = res.Rows[0][:1]
	doc := harness.Document{Schema: harness.DocumentSchema, Engine: "block",
		Records: []harness.Record{{ID: "trace", Results: []*harness.Result{res}}}}
	ragged, err := json.Marshal(Response{Schema: ResponseSchema, Status: string(StatusDone), Document: &doc})
	if err != nil {
		t.Fatal(err)
	}
	null := []byte(`{"schema":"` + ResponseSchema + `","status":"done","document":{"schema":"` +
		harness.DocumentSchema + `","engine":"block","experiments":[{"id":"trace","results":[null]}]}}`)
	return []malformedResponse{{"ragged", ragged}, {"null-result", null}}
}

// fakeDaemon answers every request with body and counts the analyze
// requests it receives.
func fakeDaemon(t *testing.T, body []byte) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var analyzes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" {
			analyzes.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, &analyzes
}

// TestClientRejectsMalformedDocument: a daemon's document is validated
// when the client decodes it, so a ragged row or a null result is an
// error from Analyze, not a panic in whatever renders the document.
func TestClientRejectsMalformedDocument(t *testing.T) {
	for _, m := range malformedResponses(t) {
		t.Run(m.name, func(t *testing.T) {
			ts, _ := fakeDaemon(t, m.body)
			resp, err := NewClient(ts.URL).Analyze(context.Background(), Request{Algorithm: "fft", N: 64, Wait: true})
			if err == nil {
				t.Fatalf("Analyze accepted a malformed document: %+v", resp.Document)
			}
		})
	}
}
