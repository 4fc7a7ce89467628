package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"netoblivious/internal/harness"
)

// serveAnalyze sends one POST /v1/analyze with body through h on a
// recorder, with no listener in between.
func serveAnalyze(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body)))
	return rec
}

// requestBody encodes req as a POST /v1/analyze body.
func requestBody(t testing.TB, req Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkHitBody sends req to h twice after it was answered once, and
// checks that each hit writes the compact encoding of the hit Response
// for srv's cached document, with a matching Content-Length, and that
// the result-cache entry keeps exactly those bytes.
func checkHitBody(t *testing.T, srv *Server, h http.Handler, req Request) {
	t.Helper()
	key := req
	if err := key.normalize(); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		rec := serveAnalyze(h, requestBody(t, req))
		c, err, ok := srv.results.Peek(key.Key())
		if !ok || err != nil {
			t.Fatalf("%s: no cached document (ok=%v, err=%v)", key.Key(), ok, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Response{Schema: ResponseSchema, Status: string(StatusDone), Cached: true, Document: c.doc}); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%s hit %d: wrote %d %q, want 200 %q", key.Key(), i, rec.Code, rec.Body.Bytes(), want.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("%s hit %d: Content-Length %q, want %d", key.Key(), i, got, want.Len())
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s hit %d: Content-Type %q", key.Key(), i, got)
		}
		if stored := c.hit.Load(); stored == nil || !bytes.Equal(*stored, want.Bytes()) {
			t.Errorf("%s hit %d: the entry does not keep the hit body", key.Key(), i)
		}
	}
}

// TestHitBodyIsCompactResponse: a result-cache hit writes the bytes of
// the compact hit Response, for the trace, dbsp and cache kinds and for
// a document an entry node keeps from a forward to the key's owner.
func TestHitBodyIsCompactResponse(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, req := range []Request{
		{Algorithm: "fft", N: 64, Kind: KindTrace, Machines: []MachineSpec{{P: 4, Sigma: 2}}, Wait: true},
		{Algorithm: "matmul", N: 64, Kind: KindDBSP, Wait: true},
		{Algorithm: "sort", N: 64, Kind: KindCache, Wait: true},
	} {
		if rec := serveAnalyze(h, requestBody(t, req)); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: miss answered %d %s", req.Kind, req.Algorithm, rec.Code, rec.Body.Bytes())
		}
		checkHitBody(t, srv, h, req)
	}

	t.Run("forwarded", func(t *testing.T) {
		nodes := newTestCluster(t, 2, nil)
		req := Request{Algorithm: "fft", N: 64, Kind: KindTrace, Wait: true}
		entry := nodes[1-ownerIndex(t, nodes, req)]
		h := entry.srv.Handler()
		if rec := serveAnalyze(h, requestBody(t, req)); rec.Code != http.StatusOK {
			t.Fatalf("forwarded miss answered %d %s", rec.Code, rec.Body.Bytes())
		}
		if st := entry.srv.results.Stats(); st.Misses != 0 {
			t.Fatalf("the entry node computed the key itself: %+v", st)
		}
		checkHitBody(t, entry.srv, h, req)
	})
}

// TestHitAllocationsIndependentOfSize: once a key's hit body is stored,
// a hit through the handler allocates the same whatever the size of its
// document, and fewer times than a hit that encoded its document did
// (127 allocations for the smallest of these keys).
func TestHitAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so allocation counts vary")
	}
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := []Request{
		{Algorithm: "fft", N: 1024, Kind: KindTrace, Wait: true},
		{Algorithm: "sort", N: 256, Kind: KindCache, Wait: true},
		{Algorithm: "matmul", N: 1024, Kind: KindDBSP, Wait: true},
	}
	allocs := make([]float64, len(reqs))
	sizes := make([]int, len(reqs))
	for i, req := range reqs {
		body := requestBody(t, req)
		for range 2 { // the miss, then the first hit, which stores the body
			rec := serveAnalyze(h, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: answered %d", req.Kind, req.Algorithm, rec.Code)
			}
			sizes[i] = rec.Body.Len()
		}
		allocs[i] = testing.AllocsPerRun(50, func() {
			if rec := serveAnalyze(h, body); rec.Code != http.StatusOK || rec.Body.Len() < 500 {
				t.Fatalf("%s %s: hit answered %d, %d bytes", req.Kind, req.Algorithm, rec.Code, rec.Body.Len())
			}
		})
	}
	t.Logf("hit body bytes %v, allocations per hit %v", sizes, allocs)
	for i, a := range allocs {
		if a != allocs[0] || a >= 127 {
			t.Errorf("%s %s: %v allocations per hit, want %v for every key and below 127", reqs[i].Kind, reqs[i].Algorithm, a, allocs[0])
		}
	}
}

// TestOverflowAnswerRefused: an analysis whose answer overflows float64
// (σ near math.MaxFloat64) fails with 422 and an error naming the
// overflow, on the job path, on a repeat the result cache answers, and
// on the synchronous path; the result cache keeps no document for it.
// writeJSON answers a value it cannot encode with a 500 and an error
// body.
func TestOverflowAnswerRefused(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, body := range []string{
		`{"algorithm":"fft","n":8,"kind":"trace","machines":[{"p":2,"sigma":1e308}],"wait":true}`,
		`{"algorithm":"fft","n":8,"kind":"trace","machines":[{"p":2,"sigma":1e308}],"wait":true}`,
		`{"algorithm":"fft","n":8,"kind":"bounds","machines":[{"p":2,"sigma":1e308}]}`,
	} {
		rec := serveAnalyze(h, body)
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: answered %d with an undecodable body %q: %v", body, rec.Code, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusUnprocessableEntity || resp.Status != string(StatusFailed) || !strings.Contains(resp.Error, "overflows") {
			t.Errorf("%s: answered %d %+v, want 422 naming the overflow", body, rec.Code, resp)
		}
	}
	req := Request{Algorithm: "fft", N: 8, Kind: KindTrace, Machines: []MachineSpec{{P: 2, Sigma: 1e308}}}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if c, err, ok := srv.results.Peek(req.Key()); !ok || err == nil || c != nil {
		t.Errorf("result cache after an overflow: ok=%v err=%v document kept=%v, want the failure and no document", ok, err, c != nil)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, []harness.Value{harness.Float(math.Inf(1))})
	var apiErr apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || rec.Code != http.StatusInternalServerError || apiErr.Error == "" {
		t.Errorf("writeJSON of +Inf wrote %d %q, want 500 with an error body", rec.Code, rec.Body.Bytes())
	}
}
