package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/core"
	"netoblivious/internal/harness"
	"netoblivious/internal/obs"
)

// runProf executes one registry algorithm under an obs.Probe and writes
// the recorded timeline as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev): one "engine" span per
// superstep with its label and message count, plus the block engine's
// per-worker barrier-wait counters and — on a replay engine — the
// schedule-compile span.  -cpuprofile/-memprofile additionally capture
// standard pprof profiles of the same run.
func runProf(args []string) int {
	fs := flag.NewFlagSet("prof", flag.ExitOnError)
	n := fs.Int("n", 1024, "input size (power of two; matmul needs a square)")
	engineName := fs.String("engine", core.DefaultEngine().Name(),
		"execution engine: "+strings.Join(core.EngineNames(), "|"))
	out := fs.String("o", "timeline.json", "timeline output file ('-' = stdout)")
	record := fs.Bool("record", false, "record message pairs during the run")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a post-run heap profile to this file")
	name, rest := splitName(args)
	_ = fs.Parse(rest)
	if name == "" && fs.NArg() >= 1 {
		name = fs.Arg(0)
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "nobl prof: need exactly one algorithm name (see 'nobl algorithms')")
		return 2
	}
	a, ok := harness.TraceAlgorithmByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nobl prof: unknown algorithm %q (see 'nobl algorithms')\n", name)
		return 1
	}
	if err := a.ValidSize(*n); err != nil {
		fmt.Fprintf(os.Stderr, "nobl prof: %v\nusage: nobl prof %s -n N; run 'nobl algorithms' for size constraints\n", err, a.Name)
		return 2
	}
	engine, err := core.EngineByName(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	probe := obs.NewProbe()
	start := time.Now()
	run, err := a.Run(context.Background(), alg.Spec{Engine: engine, Record: *record, Probe: probe}, *n)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
		return 1
	}

	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := probe.WriteChromeTrace(w); err != nil {
		fmt.Fprintf(os.Stderr, "nobl prof: writing timeline: %v\n", err)
		return 1
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "nobl prof: %v\n", err)
			return 1
		}
	}

	tr := run.Trace
	dest := *out
	if dest == "" || dest == "-" {
		dest = "stdout"
	}
	fmt.Fprintf(os.Stderr, "nobl prof: %s on M(%d) via %s: %d supersteps, %d messages, %d timeline events (%d dropped) in %s -> %s\n",
		a.Name, tr.V, engine.Name(), tr.NumSupersteps(), tr.TotalMessages(),
		probe.Len(), probe.Dropped(), wall.Round(time.Microsecond), dest)
	return 0
}

// obsBenchReport is the schema of `nobl benchobs`: the probe plumbing's
// overhead on the block engine.  baseline and nil_probe run the
// identical configuration (Options with no probe attached), so their
// ratio measures run-to-run noise; TestNilProbeAllocParity, not this
// report, gates the nil-probe path.  active_probe (a live recording
// probe) is informational.
type obsBenchReport struct {
	Schema           string  `json:"schema"`
	V                int     `json:"v"`
	Reps             int     `json:"reps"`
	BaselineNsOp     float64 `json:"baseline_ns_op"`
	NilProbeNsOp     float64 `json:"nil_probe_ns_op"`
	ActiveProbeNsOp  float64 `json:"active_probe_ns_op"`
	NilVsBaseline    float64 `json:"nil_vs_baseline"`
	ActiveVsBaseline float64 `json:"active_vs_baseline"`
}

// runBenchObs measures the superstep workload on the block engine in
// three configurations — no probe, explicit nil probe, live probe — and
// writes the obsBenchReport CI archives as BENCH_obs.json.
func runBenchObs(args []string) int {
	fs := flag.NewFlagSet("benchobs", flag.ExitOnError)
	sizeLog := fs.Int("size", 14, "log2 machine size")
	reps := fs.Int("reps", 5, "repetitions per configuration (fastest ns/op wins)")
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	if *sizeLog < 1 || *sizeLog > 24 {
		fmt.Fprintln(os.Stderr, "nobl benchobs: -size wants a log2 machine size in 1..24")
		return 2
	}
	v := 1 << uint(*sizeLog)
	eng, err := core.EngineByName("block")
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl benchobs: %v\n", err)
		return 1
	}
	live := obs.NewProbe()
	configs := []struct {
		name string
		fn   func() error
	}{
		{"baseline", func() error { return benchCoreWorkload(v, eng) }},
		{"nil_probe", func() error { return benchCoreWorkloadOpt(v, core.Options{Engine: eng, Probe: nil}) }},
		{"active_probe", func() error {
			live.Reset()
			return benchCoreWorkloadOpt(v, core.Options{Engine: eng, Probe: live})
		}},
	}
	// Interleave the configurations across reps so clock drift and
	// thermal state hit all three evenly.
	best := map[string]float64{}
	for rep := 0; rep < *reps; rep++ {
		for _, c := range configs {
			ns, _, err := measureNsOp(c.fn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nobl benchobs: %s: %v\n", c.name, err)
				return 1
			}
			if b, ok := best[c.name]; !ok || ns < b {
				best[c.name] = ns
			}
		}
	}
	report := obsBenchReport{
		Schema:           "nobl/bench-obs/v1",
		V:                v,
		Reps:             *reps,
		BaselineNsOp:     best["baseline"],
		NilProbeNsOp:     best["nil_probe"],
		ActiveProbeNsOp:  best["active_probe"],
		NilVsBaseline:    best["nil_probe"] / best["baseline"],
		ActiveVsBaseline: best["active_probe"] / best["baseline"],
	}
	fmt.Fprintf(os.Stderr, "nobl benchobs: v=%d baseline %.0f ns/op, nil probe %.0f (%.3fx), active probe %.0f (%.3fx)\n",
		v, report.BaselineNsOp, report.NilProbeNsOp, report.NilVsBaseline,
		report.ActiveProbeNsOp, report.ActiveVsBaseline)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nobl benchobs: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "nobl benchobs: %v\n", err)
		return 1
	}
	return 0
}
