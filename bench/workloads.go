package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	_ "netoblivious" // registers the built-in algorithms
	"netoblivious/alg"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/harness"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name string
	// fresh runs every pass in its own child process: the workload is a
	// batch job a user starts from a cold process.
	fresh bool
	// start sets the workload up inside a session child.
	start func(s *session) (*runner, error)
}

// workloads each load a different layer; BENCHMARK.json and README.md
// say why each was chosen.
var workloads = []*workload{
	{name: "suite", fresh: true, start: startSuite},
	{name: "serve-cold", start: startServeCold},
	{name: "serve-warm", start: startServeWarm},
	{name: "fleet", start: startFleet},
	{name: "trace-pipe", fresh: true, start: startTracePipe},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func blockEngine() core.Engine {
	eng, err := core.EngineByName("block")
	if err != nil {
		panic(err) // the block engine is compiled in
	}
	return eng
}

// startSuite regenerates EXPERIMENTS.md as `nobl -format md run all`
// does: every experiment at full size on the block engine, nproc
// experiments at a time, with a fresh trace store per pass.
func startSuite(s *session) (*runner, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	want, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	eng := blockEngine()
	pass := func(int) (time.Duration, error) {
		store := harness.NewTraceStore()
		store.SetProbe(s.probe)
		cfg := harness.Config{Engine: eng, Parallel: s.nproc, Store: store}
		start := time.Now()
		recs, err := harness.RunSuite(cfg, nil)
		if err != nil {
			return 0, err
		}
		s.span("RunSuite", 0, start)
		var md bytes.Buffer
		sink, err := harness.NewSink(harness.FormatMarkdown, &md, cfg)
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			if err := sink.Write(rec); err != nil {
				return 0, err
			}
		}
		if err := sink.Close(); err != nil {
			return 0, err
		}
		wall := time.Since(start)
		s.op(wall)
		for _, rec := range recs {
			var err error
			if !rec.Passed() {
				err = fmt.Errorf("experiment %s failed %s", rec.ID, rec.Err)
			}
			s.check(err)
			s.layer("harness.experiment_s."+rec.ID, rec.Elapsed.Seconds())
		}
		var mdErr error
		if !bytes.Equal(md.Bytes(), want) {
			mdErr = errors.New("suite markdown differs from EXPERIMENTS.md")
		}
		s.check(mdErr)
		st := store.Stats()
		s.layer("harness.trace_hit_ratio", st.HitRate())
		s.layer("harness.trace_computes", float64(st.Misses))
		s.layer("harness.trace_evictions", float64(st.Evictions))
		return wall, nil
	}
	return &runner{pass: pass, close: func() {}}, nil
}

// pipeItem is one trace-pipe input.  The items range from few supersteps
// with many messages (fft, matmul) to many supersteps with few messages
// (stencil1: 2,040 supersteps), so a per-message gain that costs
// per-superstep overhead shows.
type pipeItem struct {
	name string
	n    int
}

var pipeItems = []pipeItem{{"fft", 1 << 14}, {"matmul", 1 << 12}, {"sort", 1024}, {"stencil1", 256}}

func (it pipeItem) key() string { return fmt.Sprintf("%s/n=%d", it.name, it.n) }

// Cache-simulation parameters of `nobl stat -cache`.
const (
	statCtxWords   = 8
	statBlockWords = 8
)

var statCacheSizes = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}

// startTracePipe records each item once, teeing the superstep stream into
// the JSON trace format (what `nobl trace -record` writes) and the
// NOBTRC01 format (what the spill tier writes), then analyzes each
// encoding in one streaming pass as `nobl stat -cache` does.  The
// encodings live in memory: the filesystem's own noise would otherwise
// swamp the codecs on a shared machine.
func startTracePipe(s *session) (*runner, error) {
	eng := blockEngine()
	// The encodings are reused from item to item, so the workload's peak
	// RSS reflects the largest item rather than garbage-collector timing.
	var bufs [2]bytes.Buffer
	pass := func(int) (time.Duration, error) {
		start := time.Now()
		reports := make([]string, len(pipeItems))
		errs := make([]error, len(pipeItems))
		for i, it := range pipeItems {
			reports[i], errs[i] = s.pipe(eng, it, &bufs)
		}
		wall := time.Since(start)
		s.op(wall)
		for i, it := range pipeItems {
			if errs[i] == nil {
				errs[i] = s.golden.checkTracePipe(it.key(), reports[i])
			}
			s.check(errs[i])
		}
		return wall, nil
	}
	return &runner{pass: pass, close: func() {}}, nil
}

// pipe records one item into both encodings (JSON into bufs[0], NOBTRC01
// into bufs[1]), analyzes both, checks the two reports agree and returns
// one.
func (s *session) pipe(eng core.Engine, it pipeItem, bufs *[2]bytes.Buffer) (string, error) {
	a, ok := alg.ByName(it.name)
	if !ok {
		return "", fmt.Errorf("%s: not registered", it.name)
	}
	bufs[0].Reset()
	bufs[1].Reset()
	bin := core.NewTraceBinaryWriter(&bufs[1])
	bin.ReleasePairs = true // written second, it owns the records
	tee := &teeSink{s: s, sinks: [2]core.TraceSink{core.NewTraceJSONWriter(&bufs[0]), bin}}
	start := time.Now()
	run, err := a.Run(context.Background(), alg.Spec{Engine: eng, Record: true, Sink: tee, Probe: s.probe}, it.n)
	if err != nil {
		return "", fmt.Errorf("%s: %w", it.key(), err)
	}
	s.span("Algorithm.Run", 0, start)
	var reports [2]string
	for i := range bufs {
		s.accumulate(codecNames[i]+".bytes", float64(bufs[i].Len()))
		s.accumulate(codecNames[i]+".msgs", float64(run.Trace.TotalMessages()))
		if reports[i], err = s.stat(bufs[i].Bytes(), codecNames[i]); err != nil {
			return "", fmt.Errorf("%s (%s): %w", it.key(), codecNames[i], err)
		}
	}
	if reports[0] != reports[1] {
		return "", fmt.Errorf("%s: JSON and NOBTRC01 stat reports differ", it.key())
	}
	return reports[0], nil
}

// codecNames name the two trace formats in spans and metrics.
var codecNames = [2]string{"json", "bin"}

// teeSink hands every superstep to both file sinks, timing each call.
type teeSink struct {
	s     *session
	sinks [2]core.TraceSink
}

func (t *teeSink) BeginTrace(v, logV int) error {
	for i, sk := range t.sinks {
		start := time.Now()
		err := sk.BeginTrace(v, logV)
		t.s.span("WriteStep "+codecNames[i], 0, start)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *teeSink) WriteStep(rec core.StepRec) error {
	for i, sk := range t.sinks {
		start := time.Now()
		err := sk.WriteStep(rec)
		t.s.span("WriteStep "+codecNames[i], 0, start)
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *teeSink) EndTrace(runErr error) error {
	var first error
	for i, sk := range t.sinks {
		start := time.Now()
		err := sk.EndTrace(runErr)
		t.s.span("WriteStep "+codecNames[i], 0, start)
		if first == nil {
			first = err
		}
	}
	return first
}

// stat analyzes an encoded trace in one streaming pass, as
// `nobl stat -cache` does, and renders the report: the fold summary at
// every p, the D-BSP presets at the largest p, and the ideal-cache miss
// curve.
func (s *session) stat(encoded []byte, codec string) (string, error) {
	start := time.Now()
	src, err := core.NewTraceSource(bytes.NewReader(encoded))
	if err != nil {
		return "", err
	}
	defer src.Close()
	s.span("NewTraceSource "+codec, 0, start)
	fsum, err := core.NewFoldSummary(src.V())
	if err != nil {
		return "", err
	}
	cs, err := cachesim.NewCurveSim(src.V(), statCtxWords, statBlockWords, statCacheSizes)
	if err != nil {
		return "", err
	}
	for {
		t := time.Now()
		rec, err := src.Next()
		s.span("TraceSource.Next "+codec, 0, t)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		t = time.Now()
		if err := fsum.Observe(rec); err != nil {
			return "", err
		}
		s.span("FoldSummary.Observe", 0, t)
		t = time.Now()
		if err := cs.Step(rec); err != nil {
			return "", err
		}
		s.span("CurveSim.Step", 0, t)
	}
	s.accumulate("cachesim.accesses", float64(cs.Accesses()))
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: v=%d, %d supersteps, %d messages\n", fsum.V(), fsum.NumSupersteps(), fsum.TotalMessages())
	maxP := 0
	for q := 2; q <= fsum.V(); q *= 2 {
		t := time.Now()
		pt := eval.MeasureSummary(fsum, q, 0)
		s.span("MeasureSummary", 0, t)
		fmt.Fprintf(&sb, "p=%d H=%g alpha=%g gamma=%g supersteps=%d load=%d\n", q, pt.H, pt.Alpha, pt.Gamma, pt.Supersteps, pt.MessageLoad)
		maxP = q
	}
	if maxP > 0 {
		for _, pr := range dbsp.Presets(maxP) {
			t := time.Now()
			d := dbsp.CommTimeSummary(fsum, pr)
			s.span("CommTimeSummary", 0, t)
			fmt.Fprintf(&sb, "%s D=%g\n", pr.Name, d)
		}
	}
	fmt.Fprintf(&sb, "cache accesses=%d misses=%v\n", cs.Accesses(), cs.Misses())
	return sb.String(), nil
}
