package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	nob "netoblivious"
	"netoblivious/internal/harness"
	"netoblivious/internal/service"
	"netoblivious/internal/tracetest"
)

// TestTransposeRegisteredViaPublicAPI asserts the acceptance criterion
// that the algorithm is reachable purely through the open registry: it
// was registered by this package's init via nob.RegisterAlgorithm, and no
// internal package names it.
func TestTransposeRegisteredViaPublicAPI(t *testing.T) {
	a, ok := nob.AlgorithmByName("transpose")
	if !ok {
		t.Fatal("transpose missing from the registry")
	}
	if a.Doc == "" || a.SizeDoc == "" || len(a.DefaultSizes()) == 0 {
		t.Errorf("descriptor metadata incomplete: %+v", a)
	}
}

// TestTransposeCrossEngineEquivalence runs the user-registered algorithm
// through the same engine-equivalence check the built-ins get: both
// engines must produce byte-identical traces on every default size.
func TestTransposeCrossEngineEquivalence(t *testing.T) {
	a, ok := nob.AlgorithmByName("transpose")
	if !ok {
		t.Fatal("transpose missing from the registry")
	}
	sizes := a.DefaultSizes()
	if compared := tracetest.EngineEquivalence(t, a, sizes); compared != len(sizes) {
		t.Errorf("compared %d/%d sizes", compared, len(sizes))
	}
}

// TestTransposeSelfChecks exercises the run's built-in correctness
// verification and the typed size error.
func TestTransposeSelfChecks(t *testing.T) {
	a, _ := nob.AlgorithmByName("transpose")
	for _, n := range a.DefaultSizes() {
		if _, err := a.Run(context.Background(), nob.Spec{}, n); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	var se *nob.SizeError
	if _, err := a.Run(context.Background(), nob.Spec{}, 6); !errors.As(err, &se) {
		t.Errorf("invalid size produced %v, want a *SizeError", err)
	} else if se.Algorithm != "transpose" || se.SizeDoc == "" {
		t.Errorf("SizeError fields incomplete: %+v", se)
	}
}

// TestTransposeThroughDaemon drives an in-process nobld over HTTP: the
// user-registered algorithm is listed with metadata, analyzable, cache-
// simulable, and early-rejected on bad sizes with the size doc in the
// 400 body — all without any internal code referencing it.
func TestTransposeThroughDaemon(t *testing.T) {
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)
	ctx := context.Background()

	algs, err := client.Algorithms(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range algs.Algorithms {
		if info.Name == "transpose" {
			found = true
			if info.SizeDoc == "" || len(info.DefaultSizes) == 0 {
				t.Errorf("/v1/algorithms metadata incomplete: %+v", info)
			}
		}
	}
	if !found {
		t.Fatal("/v1/algorithms does not list the user-registered algorithm")
	}

	for _, kind := range []service.Kind{service.KindTrace, service.KindDBSP, service.KindCache} {
		resp, err := client.Analyze(ctx, service.Request{
			Algorithm: "transpose", N: 64, Kind: kind, Wait: true,
			Machines: []service.MachineSpec{{P: 8, Sigma: 2}},
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if resp.Status != "done" || resp.Document == nil {
			t.Errorf("%s: status %s, error %q", kind, resp.Status, resp.Error)
		}
	}

	// Bad size: HTTP 400 carrying the size doc.
	httpResp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(`{"algorithm":"transpose","n":6,"kind":"trace","wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad size: HTTP %d, want 400", httpResp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := httpResp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	a, _ := nob.AlgorithmByName("transpose")
	if !strings.Contains(sb.String(), a.SizeDoc) {
		t.Errorf("400 body does not carry the size doc: %s", sb.String())
	}
}

// TestTransposeThroughTraceStore covers the memoization surface: two
// gets, one execution, and the stored fold summary is the one a direct
// run yields.
func TestTransposeThroughTraceStore(t *testing.T) {
	store := harness.NewTraceStore()
	ctx := context.Background()
	r1, err := store.Get(ctx, nil, "transpose", 64)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := store.Get(ctx, nil, "transpose", 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Summary != r2.Summary {
		t.Error("second Get re-executed instead of serving the memoized run")
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("store stats %+v, want 1 hit / 1 miss", st)
	}
	a, _ := nob.AlgorithmByName("transpose")
	direct, err := a.Run(ctx, nob.Spec{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Summary, direct.Trace.Summary()) {
		t.Error("stored summary differs from a direct run's")
	}
}
