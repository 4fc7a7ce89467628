package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/network"
	"netoblivious/internal/service"
)

// Every input a workload sends is a pure function of the workload seed,
// a stream name and an index (the session or pass number), so one seed
// names one reproducible run and streams never share random state.

// rngFor derives an independent random stream from the seed.
func rngFor(seed int64, stream string, index int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(strconv.FormatInt(seed, 10) + "/" + stream + "/" + strconv.Itoa(index)))
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// excluded names the registry keys the serving workloads leave out: on
// the block engine stencil1 at n=1024 takes about 12 s per run and
// stencil2 at n=64 about 4 s, more than every other key together.
var excluded = map[string]bool{"stencil1/1024": true, "stencil2/64": true}

func isExcluded(name string, n int) bool { return excluded[name+"/"+strconv.Itoa(n)] }

// jobKinds are the analyses the job queue computes for an algorithm key.
var jobKinds = []service.Kind{service.KindTrace, service.KindDBSP, service.KindCache}

// networkP is the machine size of the cold set's network requests.
const networkP = 64

// coldSet lists every asynchronous request a fresh node can be asked:
// each registered algorithm at each of its default sizes (minus the
// exclusions) in each job kind, plus every valid topology × routing
// strategy at p=64.  It follows the registries, so a newly registered
// algorithm, topology or strategy joins the benchmark unasked.
func coldSet(algs []alg.Algorithm) []service.Request {
	var reqs []service.Request
	for _, a := range algs {
		for _, n := range a.DefaultSizes() {
			if isExcluded(a.Name, n) {
				continue
			}
			for _, k := range jobKinds {
				reqs = append(reqs, service.Request{Algorithm: a.Name, N: n, Kind: k, Wait: true})
			}
		}
	}
	for _, topo := range network.TopologyNames() {
		if !network.TopologyValid(topo, networkP) {
			continue
		}
		for _, strat := range network.RouterNames() {
			reqs = append(reqs, service.Request{Kind: service.KindNetwork, Topology: topo, Strategy: strat,
				Machines: []service.MachineSpec{{P: networkP}}, Wait: true})
		}
	}
	return reqs
}

// warmMachineLists are the machine lists of the warm key space: the
// default sweep plus single machines p ∈ {2,4,8,16} × σ ∈ {0,64}.
func warmMachineLists() [][]service.MachineSpec {
	lists := [][]service.MachineSpec{nil}
	for _, p := range []int{2, 4, 8, 16} {
		for _, sigma := range []float64{0, 64} {
			lists = append(lists, []service.MachineSpec{{P: p, Sigma: sigma}})
		}
	}
	return lists
}

// warmKeys is the key space of serve-warm: every algorithm key of the
// cold set under every machine list, plus one closed-form bounds request
// per (algorithm, size).  A list with p > n is left out: every registered
// algorithm runs on v >= n VPs, so such a machine may not fit the trace,
// and the node would rightly refuse it.
func warmKeys(algs []alg.Algorithm) []service.Request {
	var reqs []service.Request
	lists := warmMachineLists()
	for _, a := range algs {
		for _, n := range a.DefaultSizes() {
			if isExcluded(a.Name, n) {
				continue
			}
			reqs = append(reqs, service.Request{Algorithm: a.Name, N: n, Kind: service.KindBounds, Wait: true})
			for _, k := range jobKinds {
				for _, ms := range lists {
					if len(ms) > 0 && ms[0].P > n {
						continue
					}
					reqs = append(reqs, service.Request{Algorithm: a.Name, N: n, Kind: k, Machines: ms, Wait: true})
				}
			}
		}
	}
	return reqs
}

// shuffled returns a seeded permutation of reqs.
func shuffled(reqs []service.Request, rng *rand.Rand) []service.Request {
	out := make([]service.Request, len(reqs))
	for i, j := range rng.Perm(len(reqs)) {
		out[i] = reqs[j]
	}
	return out
}

// zipfStream draws keys Zipf(s=1.1) over a permutation of the key space.
// The permutation, which decides the hot keys, is the same for every seed:
// hot keys differ in answer size and cost, so a seeded permutation would
// make each seed a different workload.  The seed picks the draws.
type zipfStream struct {
	keys []service.Request
	z    *rand.Zipf
}

// zipfS is the Zipf exponent of serve-warm's key popularity.
const zipfS = 1.1

func newZipfStream(keys []service.Request, draws *rand.Rand) *zipfStream {
	return &zipfStream{
		keys: shuffled(keys, rngFor(0, "serve-warm/popularity", 0)),
		z:    rand.NewZipf(draws, zipfS, 1, uint64(len(keys)-1)),
	}
}

func (zs *zipfStream) next() service.Request { return zs.keys[zs.z.Uint64()] }

// poissonOffsets returns the arrival offsets of a Poisson process of the
// given rate (per second) over the first d of a run.
func poissonOffsets(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}
