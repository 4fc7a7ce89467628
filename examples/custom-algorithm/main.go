// Command custom-algorithm demonstrates the public algorithm API end to
// end: a user-defined algorithm (an oblivious matrix transpose) is
// registered through alg.Register only — no internal package knows its
// name — and then flows through every analysis surface of the framework:
//
//  1. the open registry listing (`nobl algorithms` / alg.All),
//  2. a specification-model run with its communication trace evaluated
//     on M(p, σ) via Fold / H / Wiseness,
//  3. the shared memoizing trace store,
//  4. typed early size validation (the *SizeError carrying the size doc),
//  5. an in-process nobld daemon: the /v1/algorithms metadata, a trace
//     analysis and an ideal-cache analysis via POST /v1/analyze, and the
//     HTTP 400 a size violation produces.
//
// Run it with:
//
//	go run ./examples/custom-algorithm
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http/httptest"

	nob "netoblivious"
	"netoblivious/alg"
	"netoblivious/internal/harness"
	"netoblivious/internal/service"
)

func main() {
	ctx := context.Background()

	// 1. The registry now holds the built-ins plus the transpose.
	fmt.Println("== registry (alg.All) ==")
	for _, a := range nob.Algorithms() {
		marker := "  "
		if a.Name == "transpose" {
			marker = "->"
		}
		fmt.Printf("%s %-16s %s\n", marker, a.Name, a.Doc)
	}

	// 2. Run it through the descriptor and evaluate the trace everywhere.
	a, ok := nob.AlgorithmByName("transpose")
	if !ok {
		log.Fatal("transpose missing from the registry")
	}
	const n = 1024
	run, err := a.Run(ctx, nob.Spec{}, n)
	if err != nil {
		log.Fatal(err)
	}
	tr := run.Trace
	fmt.Printf("\n== trace of transpose at n=%d ==\n", n)
	fmt.Printf("M(%d): %d supersteps, %d messages\n", tr.V, tr.NumSupersteps(), tr.TotalMessages())
	fmt.Println("p        sigma    H(n,p,sigma)   alpha")
	for _, p := range []int{4, 16, 64} {
		for _, sigma := range []float64{0, 16} {
			fmt.Printf("%-8d %-8g %-14.0f %.3f\n", p, sigma, nob.H(tr, p, sigma), nob.Wiseness(tr, p))
		}
	}

	// 3. The shared trace store memoizes its fold summary by (algorithm, n).
	store := harness.NewTraceStore()
	if _, err := store.Get(ctx, nil, "transpose", n); err != nil {
		log.Fatal(err)
	}
	if _, err := store.Get(ctx, nil, "transpose", n); err != nil {
		log.Fatal(err)
	}
	st := store.Stats()
	fmt.Printf("\n== trace store ==\nhits %d, misses %d (second Get served from memory)\n", st.Hits, st.Misses)

	// 4. Size validation is typed and early.
	var se *nob.SizeError
	if err := a.ValidSize(6); errors.As(err, &se) {
		fmt.Printf("\n== size validation ==\n%v\n", se)
	}

	// 5. The nobld daemon serves it with full metadata — in process here,
	// but `nobld` on a shared host works identically.
	srv, err := service.New(service.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := service.NewClient(ts.URL)

	algs, err := client.Algorithms(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== nobld /v1/algorithms ==\n")
	for _, info := range algs.Algorithms {
		if info.Name == "transpose" {
			fmt.Printf("%s: %s\n  sizes: %s (defaults %v)\n", info.Name, info.Doc, info.SizeDoc, info.DefaultSizes)
		}
	}

	for _, kind := range []service.Kind{service.KindTrace, service.KindCache} {
		resp, err := client.Analyze(ctx, service.Request{
			Algorithm: "transpose", N: n, Kind: kind, Wait: true,
			Machines: []service.MachineSpec{{P: 16, Sigma: 4}},
		})
		if err != nil {
			log.Fatal(err)
		}
		if resp.Error != "" {
			log.Fatalf("%s analysis: %s", kind, resp.Error)
		}
		res := resp.Document.Records[0].Results[0]
		pass := true
		for _, c := range res.Checks {
			pass = pass && c.Pass
		}
		fmt.Printf("\n== nobld %s analysis ==\n%s: %d row(s), checks pass=%v\n",
			kind, res.Title, len(res.Rows), pass)
	}

	// A bad size never reaches the job queue: HTTP 400 with the size doc.
	if _, err := client.Analyze(ctx, service.Request{Algorithm: "transpose", N: 6, Kind: service.KindTrace, Wait: true}); err != nil {
		fmt.Printf("\n== nobld size rejection ==\n%v\n", err)
	}
}

// The alg import is what an out-of-tree user would use directly; the
// root package re-exports it for convenience.
var _ = alg.Register
