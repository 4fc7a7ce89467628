// Package service implements nobld: a long-running HTTP service that
// answers network-oblivious analysis queries.  One oblivious
// specification on M(v) can be evaluated for any machine (p, σ) and
// executed on any D-BSP(p, g, ℓ) — which makes the codebase a query
// engine: "for this algorithm and input size, what does machine X cost,
// and is it near-optimal?".
//
// The service splits queries into two classes:
//
//   - closed-form analyses (theory bounds, D-BSP preset vectors) are
//     answered synchronously — they cost microseconds;
//   - simulation-backed analyses (M(v) traces, D-BSP folding, ideal-cache
//     miss counts, network-routing makespans) run through an asynchronous
//     job subsystem: a priority queue feeding a bounded worker pool, with
//     per-job cancellation and timeout, progress streamed over SSE, and a
//     process-lifetime LRU result cache with single-flight dedup of
//     identical requests.
//
// Responses reuse the schema-tagged harness.Document JSON as the wire
// format, so `nobl -format json run` output, stored result files and
// nobld responses are one format with one decoder.
package service

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"netoblivious/alg"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/harness"
	"netoblivious/internal/network"
	"netoblivious/internal/theory"
)

// Kind names one analysis a Request can ask for.
type Kind string

const (
	// KindBounds reports the closed-form lower and upper communication
	// bounds of the algorithm on each M(p, σ) (synchronous).
	KindBounds Kind = "bounds"
	// KindMachines reports the D-BSP preset parameter vectors and their
	// Theorem 3.4 admissibility for each requested p (synchronous).
	KindMachines Kind = "machines"
	// KindTrace executes the algorithm on M(v) and reports the measured
	// metric set (H, α, γ, ...) on each M(p, σ) (asynchronous).
	KindTrace Kind = "trace"
	// KindDBSP folds the measured trace onto the network presets and
	// reports the communication time D(n, p, g, ℓ) (asynchronous).
	KindDBSP Kind = "dbsp"
	// KindCache simulates the sequential execution of the trace under
	// ideal caches IC(M, B) and reports the miss curve (asynchronous).
	KindCache Kind = "cache"
	// KindNetwork routes cluster-confined h-relations on simulated
	// point-to-point networks and compares the makespan against the
	// D-BSP prediction (asynchronous; algorithm-independent).
	KindNetwork Kind = "network"
)

// Kinds lists every analysis kind, synchronous first.
func Kinds() []Kind {
	return []Kind{KindBounds, KindMachines, KindTrace, KindDBSP, KindCache, KindNetwork}
}

// Sync reports whether the kind is answered inline (closed-form) rather
// than through the job subsystem.
func (k Kind) Sync() bool { return k == KindBounds || k == KindMachines }

// MachineSpec selects one evaluation machine M(p, σ).
type MachineSpec struct {
	P     int     `json:"p"`
	Sigma float64 `json:"sigma"`
}

// RequestSchema tags the analyze request JSON; bump on breaking changes.
const RequestSchema = "nobld/analyze/v1"

// Request is one analysis query.
type Request struct {
	// Algorithm is a registry name (see GET /v1/algorithms).  Required
	// for every kind except "machines" and "network".
	Algorithm string `json:"algorithm,omitempty"`
	// N is the input size.  Required whenever Algorithm is.
	N int `json:"n,omitempty"`
	// Kind selects the analysis; default "trace".
	Kind Kind `json:"kind,omitempty"`
	// Machines lists the evaluation machines M(p, σ).  Empty means a
	// default sweep: powers of two up to min(v, 64) at σ ∈ {0, 16}
	// (for "machines"/"network"/"dbsp", the largest p of the sweep).
	// Kind "cache" validates the list and then ignores it.
	Machines []MachineSpec `json:"machines,omitempty"`
	// Topology selects the simulated network family for kind "network"
	// (ring, torus2d, torus3d, hypercube, fattree); empty means the full
	// suite of families valid at the requested p.
	Topology string `json:"topology,omitempty"`
	// Strategy selects the routing strategy for kind "network":
	// "shortest-path" (default) or "valiant".
	Strategy string `json:"strategy,omitempty"`
	// Seed seeds randomized routing strategies; 0 means a fixed default,
	// so identical requests stay cacheable.
	Seed int64 `json:"seed,omitempty"`
	// Priority orders queued jobs: higher runs first (FIFO within a
	// priority).  Synchronous kinds ignore it.
	Priority int `json:"priority,omitempty"`
	// Wait makes POST /v1/analyze block until an asynchronous analysis
	// completes, returning the document instead of a job reference.
	Wait bool `json:"wait,omitempty"`
}

// maxNetworkP bounds the machines of a kind "network" request.  The
// topology build and the routing are sized by p: at p=2^10 a request
// answers in well under a second, while at p=2^14 one request allocates
// gigabytes.
const maxNetworkP = 1024

// normalize fills defaults and validates what can be validated without
// running anything.
func (r *Request) normalize() error {
	if r.Kind == "" {
		r.Kind = KindTrace
	}
	valid := false
	for _, k := range Kinds() {
		if r.Kind == k {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("unknown kind %q (have %v)", r.Kind, Kinds())
	}
	needsAlg := r.Kind != KindMachines && r.Kind != KindNetwork
	if needsAlg {
		if r.Algorithm == "" {
			return fmt.Errorf("kind %q needs an algorithm (see /v1/algorithms)", r.Kind)
		}
		a, ok := alg.ByName(r.Algorithm)
		if !ok {
			return fmt.Errorf("unknown algorithm %q (see /v1/algorithms)", r.Algorithm)
		}
		// Reject invalid sizes before any job is queued: the typed
		// SizeError carries the algorithm's size doc to the client.  The
		// n >= 2 floor only backstops descriptors with permissive
		// predicates (a trace at n < 2 folds onto no machine).
		if err := a.ValidSize(r.N); err != nil {
			return err
		}
		if r.N < 2 {
			return fmt.Errorf("kind %q needs n >= 2", r.Kind)
		}
	}
	for _, m := range r.Machines {
		if m.P < 2 || m.P&(m.P-1) != 0 {
			return fmt.Errorf("machine p=%d must be a power of two >= 2", m.P)
		}
		if m.Sigma < 0 || math.IsNaN(m.Sigma) || math.IsInf(m.Sigma, 0) {
			return fmt.Errorf("machine sigma=%v must be finite and nonnegative", m.Sigma)
		}
	}
	if r.Kind == KindCache {
		// The miss curve reads no machine: once validated, the list is
		// dropped so requests that differ only in it share one key.
		r.Machines = nil
	}
	if r.Kind != KindNetwork && (r.Topology != "" || r.Strategy != "" || r.Seed != 0) {
		return fmt.Errorf("topology/strategy/seed only apply to kind %q", KindNetwork)
	}
	if r.Kind == KindNetwork {
		// Checked before the topology below, which is built at p.
		for _, m := range r.Machines {
			if m.P > maxNetworkP {
				return fmt.Errorf("kind %q: machine p=%d exceeds the limit p <= %d", KindNetwork, m.P, maxNetworkP)
			}
		}
		p := r.maxMachineP(0)
		if r.Topology != "" {
			if _, err := network.TopologyByName(r.Topology, p); err != nil {
				return fmt.Errorf("at p=%d: %v", p, err)
			}
		}
		if r.Strategy != "" {
			if _, err := network.RouterByName(r.Strategy, 0); err != nil {
				return err
			}
		}
		if r.Seed < 0 {
			return fmt.Errorf("seed must be nonnegative, got %d", r.Seed)
		}
	}
	return nil
}

// Key is the canonical cache/dedup key of the request: every field that
// changes the answer, and nothing else (Priority and Wait are delivery
// concerns).  It is the key of the local result cache and of cluster
// placement alike; the engine is not part of it, since every engine
// computes the same answer.
func (r Request) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s/n=%d", r.Kind, r.Algorithm, r.N)
	for _, m := range r.Machines {
		fmt.Fprintf(&sb, "/p=%d,s=%g", m.P, m.Sigma)
	}
	if r.Topology != "" || r.Strategy != "" || r.Seed != 0 {
		fmt.Fprintf(&sb, "/topo=%s,strat=%s,seed=%d", r.Topology, r.Strategy, r.Seed)
	}
	return sb.String()
}

// machines resolves the request's machine list against the specification
// width v (0 = unbounded, for kinds that do not run a trace).  An
// explicit list is only filtered; use machinesWithin when the caller
// must surface dropped entries instead of silently shrinking the grid.
func (r Request) machines(v int) []MachineSpec {
	kept, _, err := r.machinesWithin(v)
	if err != nil {
		return nil
	}
	return kept
}

// machinesWithin splits the request's machine list into the machines
// that fit the specification width v and those that do not (p > v).  An
// explicit list with no fitting machine is an error — answering with
// machines the client never asked for would be worse than refusing.
// With no explicit list it returns the default sweep: powers of two up
// to min(v, 64) at σ ∈ {0, 16}.
func (r Request) machinesWithin(v int) (kept, dropped []MachineSpec, err error) {
	if len(r.Machines) > 0 {
		for _, m := range r.Machines {
			if v == 0 || m.P <= v {
				kept = append(kept, m)
			} else {
				dropped = append(dropped, m)
			}
		}
		if len(kept) == 0 {
			return nil, nil, fmt.Errorf("no requested machine fits the specification: every p exceeds v=%d", v)
		}
		return kept, dropped, nil
	}
	maxP := 64
	if v > 0 && v < maxP {
		maxP = v
	}
	for _, sigma := range []float64{0, 16} {
		for p := 2; p <= maxP; p *= 2 {
			kept = append(kept, MachineSpec{P: p, Sigma: sigma})
		}
	}
	return kept, nil, nil
}

// droppedNote renders the machines a trace-bounded analysis had to skip.
func droppedNote(dropped []MachineSpec, v int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "skipped machines exceeding the specification width v=%d:", v)
	for _, m := range dropped {
		fmt.Fprintf(&sb, " p=%d", m.P)
	}
	return sb.String()
}

// maxMachineP returns the largest p of the resolved machine list.
func (r Request) maxMachineP(v int) int {
	p := 2
	for _, m := range r.machines(v) {
		if m.P > p {
			p = m.P
		}
	}
	return p
}

// progressFunc receives coarse progress stages of a running analysis.
type progressFunc func(stage, detail string)

func (p progressFunc) emit(stage, detail string) {
	if p != nil {
		p(stage, detail)
	}
}

// runAnalysis computes the document for one request.  It is the single
// entry point the synchronous path and the job workers share; ctx bounds
// every simulation it triggers.
func (s *Server) runAnalysis(ctx context.Context, req Request, progress progressFunc) (*harness.Document, error) {
	var results []*harness.Result
	var err error
	switch req.Kind {
	case KindBounds:
		results, err = s.analyzeBounds(req)
	case KindMachines:
		results, err = analyzeMachines(req)
	case KindTrace:
		results, err = s.analyzeTrace(ctx, req, progress)
	case KindDBSP:
		results, err = s.analyzeDBSP(ctx, req, progress)
	case KindCache:
		results, err = s.analyzeCache(ctx, req, progress)
	case KindNetwork:
		results, err = analyzeNetwork(ctx, req, progress)
	default:
		err = fmt.Errorf("unknown kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	doc := &harness.Document{
		Schema: harness.DocumentSchema,
		Engine: engineName,
		Records: []harness.Record{{
			ID:      string(req.Kind),
			Title:   recordTitle(req),
			Results: results,
		}},
	}
	return doc, nil
}

func recordTitle(req Request) string {
	switch req.Kind {
	case KindMachines:
		return "D-BSP preset parameter vectors"
	case KindNetwork:
		return "network routing vs D-BSP prediction"
	default:
		return fmt.Sprintf("%s analysis of %s at n=%d", req.Kind, req.Algorithm, req.N)
	}
}

// boundsFor maps a registry algorithm to its closed-form (lower,
// predicted) communication bounds on M(p, σ).  The bool result reports
// whether the paper provides closed forms for the algorithm.
func boundsFor(alg string, n float64, p int, sigma float64) (lower, predicted float64, ok bool) {
	switch alg {
	case "matmul":
		return theory.LowerBoundMM(n, p, sigma), theory.PredictedMM(n, p, sigma), true
	case "matmul-space":
		return theory.LowerBoundMMSpace(n, p, sigma), theory.PredictedMMSpace(n, p, sigma), true
	case "fft":
		return theory.LowerBoundFFT(n, p, sigma), theory.PredictedFFT(n, p, sigma), true
	case "fft-iterative":
		return theory.LowerBoundFFT(n, p, sigma), theory.PredictedIterativeFFT(n, p, sigma), true
	case "sort":
		return theory.LowerBoundSort(n, p, sigma), theory.PredictedSort(n, p, sigma), true
	case "bitonic":
		return theory.LowerBoundSort(n, p, sigma), theory.PredictedBitonic(n, p, sigma), true
	case "stencil1":
		return theory.LowerBoundStencil(n, 1, p, sigma), theory.PredictedStencil1(n, p, sigma), true
	case "stencil2":
		return theory.LowerBoundStencil(n, 2, p, sigma), theory.PredictedStencil2(n, p, sigma), true
	case "broadcast-tree":
		return theory.LowerBoundBroadcast(p, sigma), theory.PredictedBroadcastAware(p, sigma), true
	default:
		return 0, 0, false
	}
}

// analyzeBounds builds the closed-form bound table.
func (s *Server) analyzeBounds(req Request) ([]*harness.Result, error) {
	res := &harness.Result{
		ID:       string(KindBounds),
		Title:    fmt.Sprintf("closed-form bounds for %s at n=%d", req.Algorithm, req.N),
		PaperRef: "§4 lower bounds and theorems",
		Columns:  []string{"p", "sigma", "lower H", "predicted H", "pred/lower"},
	}
	n := float64(req.N)
	worst := 0.0
	for _, m := range req.machines(0) {
		lower, pred, ok := boundsFor(req.Algorithm, n, m.P, m.Sigma)
		if !ok {
			res.Notes = append(res.Notes,
				fmt.Sprintf("no closed-form bounds for %q; run a trace analysis instead", req.Algorithm))
			return []*harness.Result{res}, nil
		}
		ratio := math.Inf(1)
		if lower > 0 {
			ratio = pred / lower
		}
		if ratio > worst && !math.IsInf(ratio, 0) {
			worst = ratio
		}
		res.AddRow(m.P, m.Sigma, lower, pred, ratio)
	}
	res.AddCheck("predicted within polylog of lower bound", true,
		"worst predicted/lower ratio %.2f over %d machines (unit constants)", worst, len(res.Rows))
	return []*harness.Result{res}, nil
}

// analyzeMachines builds the preset parameter-vector table for each
// distinct requested p.
func analyzeMachines(req Request) ([]*harness.Result, error) {
	seen := map[int]bool{}
	var ps []int
	for _, m := range req.machines(0) {
		if !seen[m.P] {
			seen[m.P] = true
			ps = append(ps, m.P)
		}
	}
	sort.Ints(ps)
	// Largest machine only for the default sweep: the per-level vectors
	// of nested p's repeat as suffixes.
	if len(req.Machines) == 0 && len(ps) > 0 {
		ps = ps[len(ps)-1:]
	}
	var out []*harness.Result
	for _, p := range ps {
		out = append(out, harness.PresetsResult(p))
	}
	return out, nil
}

// analyzeTrace runs the algorithm and measures every requested machine.
func (s *Server) analyzeTrace(ctx context.Context, req Request, progress progressFunc) ([]*harness.Result, error) {
	progress.emit("tracing", fmt.Sprintf("%s n=%d on %s", req.Algorithm, req.N, engineName))
	// The trace store keeps the run's O(log²v) FoldSummary; every machine
	// of the grid is measured from it without touching the steps again.
	run, err := s.traces.Get(ctx, nil, req.Algorithm, req.N)
	if err != nil {
		return nil, err
	}
	fs := run.Summary
	machines, dropped, err := req.machinesWithin(fs.V())
	if err != nil {
		return nil, err
	}
	progress.emit("measuring", fmt.Sprintf("v=%d, %d supersteps, %d messages", fs.V(), fs.NumSupersteps(), fs.TotalMessages()))
	res := &harness.Result{
		ID:       string(KindTrace),
		Title:    fmt.Sprintf("measured metrics of %s at n=%d (v=%d)", req.Algorithm, req.N, fs.V()),
		PaperRef: "Eq. 1; Def. 3.2; Def. 5.2",
		Columns:  []string{"p", "sigma", "H(n,p,sigma)", "msg load", "supersteps", "alpha", "gamma"},
	}
	folding := true
	for _, m := range machines {
		pt := eval.MeasureSummary(fs, m.P, m.Sigma)
		res.AddRow(pt.P, pt.Sigma, pt.H, pt.MessageLoad, pt.Supersteps, pt.Alpha, pt.Gamma)
		if err := eval.CheckFoldingLemma(fs, m.P); err != nil {
			folding = false
		}
	}
	res.AddCheck("folding inequality (Lemma 3.1)", folding,
		"H never shrinks under coarser folding across %d machines", len(res.Rows))
	if len(dropped) > 0 {
		res.Notes = append(res.Notes, droppedNote(dropped, fs.V()))
	}
	if run.PeakEntries > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("peak per-VP matrix entries: %d", run.PeakEntries))
	}
	return []*harness.Result{res}, nil
}

// analyzeDBSP folds the measured trace on the network presets.
func (s *Server) analyzeDBSP(ctx context.Context, req Request, progress progressFunc) ([]*harness.Result, error) {
	progress.emit("tracing", fmt.Sprintf("%s n=%d on %s", req.Algorithm, req.N, engineName))
	run, err := s.traces.Get(ctx, nil, req.Algorithm, req.N)
	if err != nil {
		return nil, err
	}
	fs := run.Summary
	machines, dropped, err := req.machinesWithin(fs.V())
	if err != nil {
		return nil, err
	}
	p := 2
	for _, m := range machines {
		if m.P > p {
			p = m.P
		}
	}
	progress.emit("folding", fmt.Sprintf("onto D-BSP presets at p=%d", p))
	res := &harness.Result{
		ID:       string(KindDBSP),
		Title:    fmt.Sprintf("communication time of %s at n=%d on D-BSP presets (p=%d)", req.Algorithm, req.N, p),
		PaperRef: "Eq. 2; §2 presets",
		Columns:  []string{"network", "p", "D(n,p,g,l)", "admissible"},
	}
	for _, pr := range dbsp.Presets(p) {
		adm := "yes"
		if pr.Admissible() != nil {
			adm = "no"
		}
		res.AddRow(pr.Name, pr.P, dbsp.CommTimeSummary(fs, pr), adm)
	}
	res.AddCheck("folded on every preset", true, "%d networks at p=%d", len(res.Rows), p)
	if len(dropped) > 0 {
		res.Notes = append(res.Notes, droppedNote(dropped, fs.V()))
	}
	return []*harness.Result{res}, nil
}

// cacheSweepSizes are the IC(M, B) capacities (words) of the miss curve.
var cacheSweepSizes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}

// analyzeCache simulates the folded-to-one-processor execution under
// ideal caches (the Section 6 conjecture's measurable content).  It
// needs the message pairs, so it records its own run instead of asking
// the trace store, whose entries keep only fold summaries; the result
// cache memoizes the document.
func (s *Server) analyzeCache(ctx context.Context, req Request, progress progressFunc) ([]*harness.Result, error) {
	progress.emit("tracing", fmt.Sprintf("%s n=%d (recorded) on %s", req.Algorithm, req.N, engineName))
	a, ok := alg.ByName(req.Algorithm)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
	start := s.probe.Now()
	run, err := a.Run(ctx, alg.Spec{Record: true, Probe: s.probe}, req.N)
	if err != nil {
		return nil, err
	}
	if s.probe != nil {
		key := core.TraceKey{Algorithm: req.Algorithm, N: req.N}.String()
		s.probe.Span("store", "trace-compute", 0, start, map[string]any{"key": key, "record": true})
	}
	tr := run.Trace
	const ctxWords, bWords = 8, 8
	res := &harness.Result{
		ID:       string(KindCache),
		Title:    fmt.Sprintf("ideal-cache miss curve of %s at n=%d", req.Algorithm, req.N),
		PaperRef: "§6 conjecture; Pietracaprina et al. 2006",
		Columns:  []string{"M (words)", "B (words)", "misses", "miss rate"},
	}
	// One traversal of the trace drives every cache size of the sweep
	// at once (Mattson stack simulation); cancellation is checked at
	// superstep granularity.
	progress.emit("simulating", fmt.Sprintf("IC sweep %v, single pass", cacheSweepSizes))
	cs, err := cachesim.NewCurveSim(tr.V, ctxWords, bWords, cacheSweepSizes)
	if err != nil {
		return nil, err
	}
	src := tr.Source()
	defer src.Close()
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cache analysis cancelled: %w", err)
		}
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		err = cs.Step(rec)
		// The run is this job's own and CurveSim keeps no pair, so the
		// step's pooled chunks go back for the next recorded run.
		rec.Pairs.Release()
		if err != nil {
			return nil, err
		}
	}
	misses := cs.Misses()
	monotone := true
	for i, m := range cacheSweepSizes {
		rate := 0.0
		if cs.Accesses() > 0 {
			rate = float64(misses[i]) / float64(cs.Accesses())
		}
		res.AddRow(m, bWords, misses[i], rate)
		if i > 0 && misses[i] > misses[i-1] {
			monotone = false
		}
	}
	res.AddCheck("misses nonincreasing in M", monotone,
		"LRU inclusion property over %d cache sizes", len(cacheSweepSizes))
	return []*harness.Result{res}, nil
}

// networkLevels picks the routed cluster levels for a p-processor
// machine: the whole machine, a mid hierarchy level, and the deepest
// (m=1, all-local) level.
func networkLevels(p int) []int {
	lp := 0
	for q := p; q > 1; q /= 2 {
		lp++
	}
	levels := []int{0}
	if lp >= 2 {
		levels = append(levels, lp/2)
	}
	levels = append(levels, lp)
	return levels
}

// defaultNetworkSeed seeds randomized strategies when the request does
// not pin one, keeping identical requests cacheable.
const defaultNetworkSeed = 7

// networkPairings resolves the request's topology selection into
// (topology, counterpart-preset) pairs: one pair for an explicit
// topology, otherwise every registered family valid at p.
func networkPairings(req Request, p int) ([]*network.Topology, []dbsp.Params, error) {
	families := network.TopologyNames()
	if req.Topology != "" {
		families = []string{req.Topology}
	}
	var topos []*network.Topology
	var prs []dbsp.Params
	for _, family := range families {
		if req.Topology == "" && !network.TopologyValid(family, p) {
			continue
		}
		topo, err := network.TopologyByName(family, p)
		if err != nil {
			return nil, nil, err
		}
		pr, err := harness.DBSPCounterpart(family, p)
		if err != nil {
			return nil, nil, err
		}
		topos = append(topos, topo)
		prs = append(prs, pr)
	}
	return topos, prs, nil
}

// analyzeNetwork routes cluster h-relations on the simulated networks
// under the requested strategy and compares the measured makespan
// against h·g_i + ℓ_i of the matching D-BSP preset.
func analyzeNetwork(ctx context.Context, req Request, progress progressFunc) ([]*harness.Result, error) {
	p := req.maxMachineP(0)
	strategy := req.Strategy
	if strategy == "" {
		strategy = network.StrategyShortestPath
	}
	seed := req.Seed
	if seed == 0 {
		seed = defaultNetworkSeed
	}
	topos, prs, err := networkPairings(req, p)
	if err != nil {
		return nil, err
	}
	res := &harness.Result{
		ID:       string(KindNetwork),
		Title:    fmt.Sprintf("routing vs D-BSP prediction at p=%d (strategy %s)", p, strategy),
		PaperRef: "E14; Euro-Par 1999; Valiant 1982",
		Columns:  []string{"network", "strategy", "level", "h", "makespan", "predicted", "ratio"},
	}
	rng := rand.New(rand.NewSource(defaultNetworkSeed))
	inBand := true
	band := 3.0
	if strategy == network.StrategyValiant {
		band = 6.0 // two phases double the distance term
	}
	for ci, topo := range topos {
		progress.emit("routing", fmt.Sprintf("%s via %s", topo.Name, strategy))
		sim := network.NewSim(topo)
		for _, level := range networkLevels(p) {
			for _, h := range []int{1, 4, 16} {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("network analysis cancelled: %w", err)
				}
				router, err := network.RouterByName(strategy, seed)
				if err != nil {
					return nil, err
				}
				msgs := network.ClusterHRelation(rng, p, level, h)
				rr := sim.RouteWith(router, msgs)
				pred, ratio := 0.0, 0.0
				if level < len(prs[ci].G) {
					pred = float64(h)*prs[ci].G[level] + prs[ci].L[level]
					ratio = float64(rr.Makespan) / pred
					if ratio > band {
						inBand = false
					}
				}
				res.AddRow(topo.Name, strategy, level, h, rr.Makespan, pred, ratio)
			}
		}
	}
	res.AddCheck("makespan within constant band of h*g_i + l_i", inBand,
		"%d routed patterns across %d networks (band %.0fx, strategy %s)", len(res.Rows), len(topos), band, strategy)
	res.Notes = append(res.Notes, "level = log2 p rows are all-local (m=1 clusters): makespan 0, no D-BSP term")
	return []*harness.Result{res}, nil
}
