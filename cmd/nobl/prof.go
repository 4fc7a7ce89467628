package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/obs"
)

// runProf executes one registry algorithm under an obs.Probe and writes
// the recorded timeline as Chrome trace-event JSON (open it in
// chrome://tracing or https://ui.perfetto.dev): one "engine" span per
// superstep with its label and message count, plus the block engine's
// per-worker barrier-wait counters.  -cpuprofile/-memprofile additionally
// capture standard pprof profiles of the same run.
func runProf(args []string) int {
	fs := flag.NewFlagSet("prof", flag.ExitOnError)
	n := fs.Int("n", 1024, "input size (power of two; matmul needs a square)")
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
	a, ok := alg.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nobl prof: unknown algorithm %q (see 'nobl algorithms')\n", name)
		return 1
	}
	if err := a.ValidSize(*n); err != nil {
		fmt.Fprintf(os.Stderr, "nobl prof: %v\nusage: nobl prof %s -n N; run 'nobl algorithms' for size constraints\n", err, a.Name)
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
	run, err := a.Run(context.Background(), alg.Spec{Record: *record, Probe: probe}, *n)
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
	fmt.Fprintf(os.Stderr, "nobl prof: %s on M(%d): %d supersteps, %d messages, %d timeline events (%d dropped) in %s -> %s\n",
		a.Name, tr.V, tr.NumSupersteps(), tr.TotalMessages(),
		probe.Len(), probe.Dropped(), wall.Round(time.Microsecond), dest)
	return 0
}
