package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"netoblivious/internal/core"
)

// Config tunes a suite run: problem sizes, execution engine, worker
// count and the shared trace store.  A Config is plain data — copies are
// cheap and concurrent experiments may share one.
type Config struct {
	// Quick shrinks problem sizes for use inside benchmarks and smoke
	// tests.
	Quick bool

	// Engine selects the core execution engine for every
	// specification-model run of the suite; nil uses the BlockEngine.
	// Tests set it to the GoroutineEngine to run the suite on the
	// reference.  It is threaded explicitly through every algorithm
	// call, so concurrent suites on different engines cannot race.
	Engine core.Engine

	// Parallel bounds the number of experiments running concurrently in
	// RunSuite.  0 means runtime.GOMAXPROCS(0); 1 forces sequential
	// execution.  Parallel and sequential runs produce byte-identical
	// rendered output (the golden test enforces it).
	Parallel int

	// Store memoizes the fold summary of each specification-model run
	// by (algorithm, n), so overlapping experiments share one
	// execution; the engine is not in the key, since every engine
	// yields the same trace.  nil runs every request directly (no
	// sharing); RunSuite installs a fresh store when the caller did not
	// provide one.
	Store *TraceStore

	// Context cancels the suite: experiments not yet dispatched are
	// skipped (their records carry the cancellation error) and
	// specification-model runs in flight abort at the next superstep.
	// nil means no cancellation.
	Context context.Context
}

// engine resolves the effective execution engine.
func (c Config) engine() core.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return core.BlockEngine{}
}

// ctx resolves the effective context.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// runOpts returns the core options experiments pass to direct
// specification-model runs, threading the configured engine and context
// through.
func (c Config) runOpts(record bool) core.Options {
	return core.Options{RecordMessages: record, Engine: c.engine(), Context: c.Context}
}

// Summary returns the FoldSummary of a registry algorithm at size n —
// the one input of every metric an experiment reports — executing the
// algorithm (on the configured engine) at most once per store.
func (c Config) Summary(name string, n int) (*core.FoldSummary, error) {
	run, err := c.AlgRun(name, n)
	return run.Summary, err
}

// AlgRun returns the memoized run of a registry algorithm at size n: its
// fold summary plus the run metadata (peak memory) the matmul
// experiments report.  Without a store the run is not shared.
func (c Config) AlgRun(name string, n int) (Run, error) {
	store := c.Store
	if store == nil {
		store = NewTraceStore()
	}
	return store.Get(c.ctx(), c.engine(), name, n)
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(cfg Config) ([]*Result, error)
}

var registry []Experiment

// register adds an experiment to the suite registry.
func register(e Experiment) { registry = append(registry, e) }

// Experiments returns the full registry in declaration order.
func Experiments() []Experiment { return registry }

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Record is the structured outcome of one experiment in a suite run.
type Record struct {
	// ID, Title, PaperRef identify the experiment.
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	// Results holds the experiment's typed result sets.
	Results []*Result `json:"results,omitempty"`
	// Err is the execution error, if the experiment failed to run.
	Err string `json:"error,omitempty"`
	// Elapsed is the experiment's wall-clock time.  It is excluded from
	// every sink (timings are schedule-dependent; the determinism
	// guarantee covers rendered output) and reported only through the
	// bench report.
	Elapsed time.Duration `json:"-"`
}

// CheckCounts totals the check outcomes across the record's results.
func (r Record) CheckCounts() (passed, failed int) {
	for _, res := range r.Results {
		for _, c := range res.Checks {
			if c.Pass {
				passed++
			} else {
				failed++
			}
		}
	}
	return passed, failed
}

// Passed reports whether the experiment ran and every check passed.
func (r Record) Passed() bool {
	if r.Err != "" {
		return false
	}
	_, failed := r.CheckCounts()
	return failed == 0
}

// ResolveIDs expands the id list for RunSuite: nil, empty, or the single
// word "all" selects the full registry; anything else must name
// registered experiments.
func ResolveIDs(ids []string) ([]Experiment, error) {
	if len(ids) == 0 || (len(ids) == 1 && strings.EqualFold(ids[0], "all")) {
		return Experiments(), nil
	}
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// RunSuite executes the selected experiments through a bounded worker
// pool and returns one Record per experiment, in selection order
// regardless of completion order.  Every experiment derives its inputs
// from its own fixed-seed RNG and traces are shared through the
// single-flight store, so the records — and therefore all rendered
// output — are independent of the parallel schedule.
func RunSuite(cfg Config, ids []string) ([]Record, error) {
	return RunSuiteCtx(cfg.ctx(), cfg, ids)
}

// RunSuiteCtx is RunSuite bounded by a context: experiments whose worker
// picks them up after cancellation are not executed (their records carry
// the cancellation error), and the context is threaded into every
// specification-model run so in-flight executions abort at the next
// superstep instead of burning CPU to completion.
func RunSuiteCtx(ctx context.Context, cfg Config, ids []string) ([]Record, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg.Context = ctx
	exps, err := ResolveIDs(ids)
	if err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = NewTraceStore()
	}
	workers := cfg.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}

	recs := make([]Record, len(exps))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if cerr := ctx.Err(); cerr != nil {
					e := exps[i]
					recs[i] = Record{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Err: fmt.Sprintf("suite cancelled: %v", cerr)}
					continue
				}
				recs[i] = runOne(cfg, exps[i])
			}
		}()
	}
	for i := range exps {
		next <- i
	}
	close(next)
	wg.Wait()
	return recs, nil
}

// runOne executes a single experiment into its record.
func runOne(cfg Config, e Experiment) Record {
	rec := Record{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef}
	start := time.Now()
	results, err := e.Run(cfg)
	rec.Elapsed = time.Since(start)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Results = results
	return rec
}
