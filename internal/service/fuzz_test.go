package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"netoblivious/internal/tracetest"
)

// FuzzRequestNormalize decodes arbitrary bytes as an analyze request the
// way POST /v1/analyze does, then normalizes and keys it.  No step may
// panic, and decoding plus normalizing must allocate within
// tracetest.CheckAlloc's budget.  An accepted kind "network" request
// keeps every machine within maxNetworkP, an accepted kind "cache"
// request carries no machines, and normalizing is idempotent: an
// accepted request normalizes again to the same key.
//
// Run it with: go test -run '^$' -fuzz FuzzRequestNormalize -fuzztime 15s ./internal/service
func FuzzRequestNormalize(f *testing.F) {
	for _, req := range []Request{
		{Algorithm: "fft", N: 1024, Kind: KindBounds},
		{Kind: KindMachines, Machines: []MachineSpec{{P: 16}}},
		{Algorithm: "fft", N: 256, Kind: KindTrace, Wait: true},
		{Algorithm: "sort", N: 4096, Kind: KindTrace, Machines: []MachineSpec{{P: 2, Sigma: 3}}},
		{Algorithm: "matmul", N: 6, Kind: KindTrace, Wait: true},
		{Algorithm: "fft", N: 64, Kind: KindTrace, Machines: []MachineSpec{{P: 3}}},
		{Algorithm: "stencil1", N: 256, Kind: KindCache},
		{Algorithm: "fft", N: 256, Kind: KindCache, Machines: []MachineSpec{{P: 16, Sigma: 4}}},
		{Algorithm: "fft", N: 512, Kind: KindDBSP},
		{Kind: KindNetwork, Topology: "fattree", Strategy: "valiant", Seed: 11, Machines: []MachineSpec{{P: 64}}},
		{Kind: KindNetwork, Topology: "torus3d", Machines: []MachineSpec{{P: 16}}},
		{Kind: KindNetwork, Topology: "ring", Machines: []MachineSpec{{P: 2 * maxNetworkP}}},
		{Kind: KindNetwork, Seed: -3},
		{Kind: KindTrace, Algorithm: "fft", N: 256, Topology: "ring"},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"algorithm":"fft","n":256,"kind":"trace","wait":true,"engine":"replay"}`))
	f.Add([]byte(`{"kind":"network","machines":[{"p":4194304}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var err error
		tracetest.CheckAlloc(t, len(data), func() {
			err = json.NewDecoder(bytes.NewReader(data)).Decode(&req)
			if err == nil {
				err = req.normalize()
			}
		})
		if err != nil {
			return
		}
		key := req.Key()
		if req.Kind == KindCache && len(req.Machines) > 0 {
			t.Fatalf("a normalized cache request carries machines %v", req.Machines)
		}
		if req.Kind == KindNetwork {
			for _, m := range req.Machines {
				if m.P > maxNetworkP {
					t.Fatalf("accepted a network machine p=%d above %d", m.P, maxNetworkP)
				}
			}
		}
		again := req
		if err := again.normalize(); err != nil {
			t.Fatalf("a normalized request fails to normalize again: %v", err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("renormalizing changed the key: %q -> %q", key, got)
		}
	})
}
