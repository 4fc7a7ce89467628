// Command nobl runs the reproduction experiments of the network-oblivious
// algorithms framework, renders their structured results, and
// records/analyzes communication traces.
//
// Usage:
//
//	nobl list                     enumerate experiments
//	nobl run E1 [E3 ...]          run selected experiments
//	nobl run all                  run the full suite
//	nobl algorithms               enumerate traceable algorithms
//	nobl trace <alg> -n N -o F    run an algorithm, stream its trace JSON
//	                              (-o - pipes to stdout; -record keeps
//	                              message pairs; peak memory is the
//	                              largest superstep, not the trace)
//	nobl stat F [-p P] [-sigma σ] analyze a stored trace on M(p,σ) and the
//	                              network presets in one streaming pass
//	                              ('-' reads stdin; -cache adds the
//	                              single-pass ideal-cache miss curve)
//	nobl prof <alg> [-n N] [-o F] run one algorithm under the engine probe
//	                              and write a Chrome trace-event timeline;
//	                              -cpuprofile/-memprofile add pprof output
//
// Performance is measured by the benchmark under bench/ (see
// bench/README.md), not by this command.
//
// Flags:
//
//	-quick      use reduced problem sizes
//	-format F   output format: text (default), md, json, csv
//	-out DIR    write per-experiment files into DIR instead of stdout
//	-parallel N run up to N experiments concurrently (0 = GOMAXPROCS);
//	            output is byte-identical at any parallelism
//
// Every specification-model run uses the block engine.
//
// Exit status: 0 when every selected experiment ran and every check
// passed; 1 when an experiment failed to run or any check failed; 2 on
// usage errors.  One summary line per experiment is printed to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"netoblivious/alg"
	"netoblivious/internal/cachesim"
	"netoblivious/internal/core"
	"netoblivious/internal/dbsp"
	"netoblivious/internal/eval"
	"netoblivious/internal/harness"
	"netoblivious/internal/network"
	"netoblivious/internal/obs"
	"netoblivious/internal/service"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	format := flag.String("format", "text", "output format: text|md|json|csv")
	outDir := flag.String("out", "", "write per-experiment files into this directory")
	parallel := flag.Int("parallel", 0, "max concurrent experiments (0 = GOMAXPROCS, 1 = sequential)")
	logLevel := flag.String("log-level", "warn", "diagnostic log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "diagnostic log format: text|json")
	flag.Usage = usage
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl: %v\n", err)
		os.Exit(2)
	}
	// Diagnostic logging rides slog's default logger; the warn default
	// keeps the CLI's stderr contract (summary lines only) unchanged.
	slog.SetDefault(logger)
	f, err := harness.ParseFormat(*format)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl: %v\n", err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %-72s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
	case "run":
		cfg := harness.Config{
			Quick:    *quick,
			Parallel: *parallel,
			Store:    harness.NewTraceStore(),
		}
		os.Exit(runSuite(cfg, f, *outDir, args[1:]))
	case "algorithms":
		for _, a := range alg.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
			fmt.Printf("%-16s   sizes: %s (defaults %s)\n", "", a.SizeDoc, formatSizes(a.DefaultSizes()))
		}
	case "trace":
		runTrace(args[1:])
	case "stat":
		runStat(args[1:])
	case "prof":
		os.Exit(runProf(args[1:]))
	case "remote":
		os.Exit(runRemote(f, args[1:]))
	default:
		usage()
		os.Exit(2)
	}
}

// runRemote drives a shared nobld daemon instead of computing locally.
// The subcommand comes first; its flags follow (before or after the
// positional argument):
//
//	nobl remote algorithms [-addr URL]
//	nobl remote analyze <alg> [-addr URL] [-n N] [-kind K] [-p P] [-sigma S] [-wait] [-priority P]
//	nobl remote job <id> [-addr URL] [-cancel]
//	nobl remote metrics [-addr URL]
//	nobl remote cluster [-addr URL] [-key K]
//
// Documents come back in the same schema `nobl -format json run` emits
// and are rendered through the same sinks (-format applies).
func runRemote(f harness.Format, args []string) int {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:7413", "nobld base URL")
	n := fs.Int("n", 1024, "input size")
	kind := fs.String("kind", "trace", "analysis kind (bounds|machines|trace|dbsp|cache|network)")
	p := fs.Int("p", 0, "evaluation machine processors (0 = server default sweep)")
	sigma := fs.Float64("sigma", 0, "evaluation machine σ")
	topology := fs.String("topology", "", "kind network: topology family ("+strings.Join(network.TopologyNames(), "|")+"; empty = all valid at p)")
	strategy := fs.String("strategy", "", "kind network: routing strategy ("+strings.Join(network.RouterNames(), "|")+"; empty = shortest-path)")
	seed := fs.Int64("seed", 0, "kind network: seed for randomized strategies (0 = server default)")
	wait := fs.Bool("wait", true, "block until asynchronous analyses complete")
	priority := fs.Int("priority", 0, "job priority (higher runs first)")
	cancel := fs.Bool("cancel", false, "with 'job': cancel instead of show")
	key := fs.String("key", "", "with 'cluster': look up which node owns this cache key")
	sub, rest := splitName(args)
	name := ""
	if sub == "analyze" || sub == "job" {
		// The algorithm / job id may precede the flags.
		name, rest = splitName(rest)
	}
	_ = fs.Parse(rest)
	if name == "" && fs.NArg() >= 1 {
		name = fs.Arg(0)
	}
	ctx := context.Background()
	client := service.NewClient(*addr)
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "nobl remote: %v\n", err)
		return 1
	}
	switch sub {
	case "algorithms":
		resp, err := client.Algorithms(ctx)
		if err != nil {
			return fail(err)
		}
		for _, a := range resp.Algorithms {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
			if a.SizeDoc != "" {
				fmt.Printf("%-16s   sizes: %s (defaults %s)\n", "", a.SizeDoc, formatSizes(a.DefaultSizes))
			}
		}
		fmt.Printf("kinds: %v (engine %s)\n", resp.Kinds, resp.Engine)
		fmt.Printf("topologies: %v; strategies: %v\n", resp.Topologies, resp.Strategies)
	case "analyze":
		if name == "" && *kind != "machines" && *kind != "network" {
			fmt.Fprintln(os.Stderr, "nobl remote analyze: need an algorithm name")
			return 2
		}
		req := service.Request{
			Algorithm: name,
			Kind:      service.Kind(*kind),
			N:         *n,
			Topology:  *topology,
			Strategy:  *strategy,
			Seed:      *seed,
			Priority:  *priority,
			Wait:      *wait,
		}
		if *p != 0 {
			req.Machines = []service.MachineSpec{{P: *p, Sigma: *sigma}}
		}
		resp, err := client.Analyze(ctx, req)
		if err != nil {
			return fail(err)
		}
		if resp.JobID != "" && resp.Document == nil {
			// Asynchronous submission: follow the job to completion.
			fmt.Fprintf(os.Stderr, "nobl remote: job %s %s; streaming progress\n", resp.JobID, resp.Status)
			info, err := client.WaitJob(ctx, resp.JobID, func(ev service.Event) {
				fmt.Fprintf(os.Stderr, "nobl remote: [%s] %s %s\n", resp.JobID, ev.Stage, ev.Detail)
			})
			if err != nil {
				return fail(err)
			}
			if info.Response == nil {
				return fail(fmt.Errorf("job %s finished %s without a response", resp.JobID, info.Status))
			}
			resp = *info.Response
		}
		if resp.Error != "" {
			return fail(fmt.Errorf("%s: %s", resp.Status, resp.Error))
		}
		if err := renderDocument(f, resp.Document); err != nil {
			return fail(err)
		}
		if resp.Cached {
			fmt.Fprintln(os.Stderr, "nobl remote: served from cache")
		}
	case "job":
		if name == "" {
			fmt.Fprintln(os.Stderr, "nobl remote job: need a job id")
			return 2
		}
		var info service.JobInfo
		var err error
		if *cancel {
			info, err = client.CancelJob(ctx, name)
		} else {
			info, err = client.Job(ctx, name)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Printf("job %s: %s (%s %s n=%d)\n", info.ID, info.Status, info.Request.Kind, info.Request.Algorithm, info.Request.N)
		for _, ev := range info.Events {
			fmt.Printf("  %2d %-10s %s\n", ev.Seq, ev.Stage, ev.Detail)
		}
		if info.Response != nil && info.Response.Document != nil {
			if err := renderDocument(f, info.Response.Document); err != nil {
				return fail(err)
			}
		}
	case "metrics":
		snap, err := client.Metrics(ctx)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return fail(err)
		}
	case "cluster":
		view, err := client.Cluster(ctx, *key)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("mode: %s (engine %s)\n", view.Mode, view.Engine)
		if view.Mode != "single" {
			fmt.Printf("ring: %d members, %d vnodes, seed %d\n", len(view.Members), view.VNodes, view.Seed)
			for _, p := range view.Peers {
				mark, state := " ", "down"
				if p.Self {
					mark = "*"
				}
				if p.Healthy {
					state = "up"
				}
				line := fmt.Sprintf("%s %-28s %-4s checks=%d", mark, p.Addr, state, p.Checks)
				if p.Error != "" {
					line += " error=" + p.Error
				}
				fmt.Println(line)
			}
		}
		if view.Ownership != nil {
			o := view.Ownership
			where := o.Owner
			if o.Local {
				where += " (local)"
			}
			fmt.Printf("key %s -> %s\n", o.Key, where)
		}
	default:
		fmt.Fprintln(os.Stderr, "nobl remote: need one of algorithms|analyze|job|metrics|cluster")
		return 2
	}
	return 0
}

// renderDocument writes a service document through the standard sinks.
func renderDocument(f harness.Format, doc *harness.Document) error {
	if doc == nil {
		return fmt.Errorf("no document in response")
	}
	if f == harness.FormatJSON {
		return harness.EncodeDocument(os.Stdout, *doc)
	}
	sink, err := harness.NewSink(f, os.Stdout, harness.Config{})
	if err != nil {
		return err
	}
	for _, rec := range doc.Records {
		if err := sink.Write(rec); err != nil {
			return err
		}
	}
	return sink.Close()
}

// runSuite executes the selected experiments, renders them through the
// chosen sink, prints one pass/fail summary line per experiment, writes
// the optional bench report, and returns the process exit code.
func runSuite(cfg harness.Config, f harness.Format, outDir string, ids []string) int {
	start := time.Now()
	recs, err := harness.RunSuite(cfg, ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl: %v (try 'nobl list')\n", err)
		return 1
	}
	total := time.Since(start)
	if err := render(cfg, f, outDir, recs); err != nil {
		fmt.Fprintf(os.Stderr, "nobl: rendering: %v\n", err)
		return 1
	}
	failures := 0
	for _, rec := range recs {
		passed, failed := rec.CheckCounts()
		switch {
		case rec.Err != "":
			failures++
			fmt.Fprintf(os.Stderr, "nobl: %-4s ERROR %s\n", rec.ID, rec.Err)
		case failed > 0:
			failures++
			fmt.Fprintf(os.Stderr, "nobl: %-4s FAIL  %d/%d checks failed  (%s)\n",
				rec.ID, failed, passed+failed, rec.Elapsed.Round(time.Microsecond))
		default:
			fmt.Fprintf(os.Stderr, "nobl: %-4s PASS  %d checks  (%s)\n",
				rec.ID, passed, rec.Elapsed.Round(time.Microsecond))
		}
	}
	st := cfg.Store.Stats()
	slog.Debug("suite complete",
		"experiments", len(recs),
		"failures", failures,
		"wall_ms", float64(total.Microseconds())/1e3,
		"store_hits", st.Hits,
		"store_misses", st.Misses)
	fmt.Fprintf(os.Stderr, "nobl: %d experiments in %s; trace store: %d hits / %d misses (%.0f%% hit rate)\n",
		len(recs), total.Round(time.Millisecond), st.Hits, st.Misses, 100*st.HitRate())
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "nobl: %d experiment(s) failing\n", failures)
		return 1
	}
	return 0
}

// writeRecs streams records through one sink of format f onto w.
func writeRecs(cfg harness.Config, f harness.Format, w io.Writer, recs []harness.Record) error {
	sink, err := harness.NewSink(f, w, cfg)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := sink.Write(rec); err != nil {
			return err
		}
	}
	return sink.Close()
}

// render streams the records through one sink on stdout, or — with an
// output directory — one file per experiment (text/md/csv) or a single
// results.json document (json).
func render(cfg harness.Config, f harness.Format, outDir string, recs []harness.Record) error {
	if outDir == "" {
		return writeRecs(cfg, f, os.Stdout, recs)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	writeOne := func(name string, recs []harness.Record) error {
		file, err := os.Create(filepath.Join(outDir, name))
		if err != nil {
			return err
		}
		if err := writeRecs(cfg, f, file, recs); err != nil {
			file.Close()
			return err
		}
		return file.Close()
	}
	if f == harness.FormatJSON {
		return writeOne("results.json", recs)
	}
	for _, rec := range recs {
		if err := writeOne(rec.ID+f.Ext(), []harness.Record{rec}); err != nil {
			return err
		}
	}
	return nil
}

// runTrace streams the run's supersteps straight into the output codec:
// the trace is never accumulated in memory, so peak footprint is the
// largest superstep, not n.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	n := fs.Int("n", 1024, "input size (power of two; matmul needs a square)")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	record := fs.Bool("record", false, "record message pairs ('nobl stat -cache' needs them; grows the trace)")
	name, rest := splitName(args)
	_ = fs.Parse(rest)
	if name == "" && fs.NArg() == 1 {
		name = fs.Arg(0)
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "nobl trace: need exactly one algorithm name (see 'nobl algorithms')")
		os.Exit(2)
	}
	a, ok := alg.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nobl trace: unknown algorithm %q (see 'nobl algorithms')\n", name)
		os.Exit(1)
	}
	// Validate the size before running anything, so a bad -n fails in
	// microseconds with the algorithm's own size doc.
	if err := a.ValidSize(*n); err != nil {
		fmt.Fprintf(os.Stderr, "nobl trace: %v\nusage: nobl trace %s -n N; run 'nobl algorithms' for size constraints\n", err, a.Name)
		os.Exit(2)
	}
	var sink core.TraceSink
	if *out == "" || *out == "-" {
		// Stdout: the JSON writer encodes each superstep as it completes.
		sink = core.NewTraceJSONWriter(os.Stdout)
	} else {
		// A file sink writes to <path>.tmp and renames on success, so a
		// failed or interrupted run never leaves a truncated trace file;
		// a named pipe or device is written in place.
		sink = core.NewTraceFileSink(*out)
	}
	run, err := a.Run(context.Background(), alg.Spec{Record: *record, Sink: sink}, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobl trace: %v\n", err)
		os.Exit(1)
	}
	tr := run.Trace // no steps (they went to the sink), but counted and summarized
	fmt.Fprintf(os.Stderr, "nobl: %s on M(%d): %d supersteps, %d messages (streamed)\n",
		a.Name, tr.V, tr.NumSupersteps(), tr.TotalMessages())
}

// formatSizes renders a default-size ladder compactly.
func formatSizes(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, n := range sizes {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ", ")
}

// runStat analyzes a stored trace in one streaming pass: the fold
// summary (O(log²v) memory) powers every M(p,σ) point and D-BSP preset,
// and the optional single-pass cache simulation shares the same pass —
// so arbitrarily large trace files, and stdin pipes, work in bounded
// memory.  The miss curve is the sweep nobld reports (harness.CacheCtxWords,
// CacheLineWords, CacheSweepSizes).
func runStat(args []string) {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	p := fs.Int("p", 0, "fold onto p processors (default: all powers of two)")
	sigma := fs.Float64("sigma", 0, "latency/synchronization cost σ")
	cache := fs.Bool("cache", false, "also simulate the ideal-cache miss curve (the trace must be recorded with 'nobl trace -record')")
	var name string
	rest := args
	if len(args) > 0 && args[0] == "-" {
		// A leading "-" is the stdin pseudo-file, not a flag.
		name, rest = "-", args[1:]
	} else {
		name, rest = splitName(args)
	}
	_ = fs.Parse(rest)
	if name == "" && fs.NArg() == 1 {
		name = fs.Arg(0)
	}
	if name == "" {
		fmt.Fprintln(os.Stderr, "nobl stat: need exactly one trace file ('-' = stdin)")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "nobl stat: %v\n", err)
		os.Exit(1)
	}
	var src core.TraceSource
	var err error
	if name == "-" {
		src, err = core.NewTraceSource(os.Stdin)
	} else {
		src, err = core.OpenTraceFile(name)
	}
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "nobl stat: %v\nusage: nobl stat <file> [-p P] [-sigma σ] [-cache] ('-' reads from stdin)\n", err)
			os.Exit(2)
		}
		fail(err)
	}
	defer src.Close()
	fsum, err := core.NewFoldSummary(src.V())
	if err != nil {
		fail(err)
	}
	// Validate -p against the machine width before streaming anything.
	if *p != 0 {
		if _, err := fsum.TryF(*p); err != nil {
			fmt.Fprintf(os.Stderr, "nobl stat: %v\n", err)
			os.Exit(2)
		}
	}
	var cs *cachesim.CurveSim
	if *cache {
		if cs, err = cachesim.NewCurveSim(src.V(), harness.CacheCtxWords, harness.CacheLineWords, harness.CacheSweepSizes); err != nil {
			fail(err)
		}
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(err)
		}
		if err := fsum.Observe(rec); err != nil {
			fail(err)
		}
		if cs != nil {
			if err := cs.Step(rec); err != nil {
				if errors.Is(err, cachesim.ErrNoPairs) {
					fmt.Fprintf(os.Stderr, "nobl stat: %v\nre-record with 'nobl trace <alg> -record' to enable -cache\n", err)
					os.Exit(1)
				}
				fail(err)
			}
		}
	}
	fmt.Printf("trace: v=%d, %d supersteps, %d messages\n\n", fsum.V(), fsum.NumSupersteps(), fsum.TotalMessages())
	ps := []int{}
	if *p != 0 {
		ps = append(ps, *p)
	} else {
		for q := 2; q <= fsum.V(); q *= 2 {
			ps = append(ps, q)
		}
	}
	fmt.Printf("%-8s %-14s %-10s %-10s %-12s %-12s\n", "p", "H(n,p,σ)", "α", "γ", "supersteps", "messages")
	for _, q := range ps {
		pt := eval.MeasureSummary(fsum, q, *sigma)
		fmt.Printf("%-8d %-14.0f %-10.3f %-10.3f %-12d %-12d\n",
			q, pt.H, pt.Alpha, pt.Gamma, pt.Supersteps, pt.MessageLoad)
	}
	if len(ps) > 0 {
		pq := ps[len(ps)-1]
		fmt.Printf("\ncommunication time D(n,%d,g,ℓ) on the network presets:\n", pq)
		for _, pr := range dbsp.Presets(pq) {
			fmt.Printf("  %-20s D = %.0f\n", pr.Name, dbsp.CommTimeSummary(fsum, pr))
		}
	}
	if cs != nil {
		accesses := cs.Accesses()
		misses := cs.Misses()
		fmt.Printf("\nideal-cache miss curve (context %d words, line %d words, %d accesses):\n",
			harness.CacheCtxWords, harness.CacheLineWords, accesses)
		fmt.Printf("  %-12s %-12s %s\n", "M (words)", "misses", "miss rate")
		for i, m := range harness.CacheSweepSizes {
			rate := 0.0
			if accesses > 0 {
				rate = float64(misses[i]) / float64(accesses)
			}
			fmt.Printf("  %-12d %-12d %.4f\n", m, misses[i], rate)
		}
	}
}

// splitName peels a leading positional argument off args so subcommand
// flags may appear before or after it.
func splitName(args []string) (name string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

func usage() {
	fmt.Fprint(os.Stderr, `nobl — network-oblivious algorithms experiment runner

usage:
  nobl [flags] list
  nobl [flags] run <ID>... | all
  nobl algorithms
  nobl trace <alg> [-n N] [-o file|-] [-record]
              stream the run's trace as JSON ('-' = stdout); memory
              stays O(largest superstep), so n beyond RAM works
  nobl stat <file>|- [-p P] [-sigma σ] [-cache]
              analyze a trace file or stdin pipe in one streaming
              pass; -cache adds the ideal-cache miss curve (needs a
              trace recorded with -record)
  nobl prof <alg> [-n N] [-o timeline.json]
              [-cpuprofile file] [-memprofile file] [-record]
              run one algorithm under the engine probe and write its
              Chrome trace-event timeline (chrome://tracing, Perfetto):
              one span per superstep, per-worker barrier waits on the
              block engine
  nobl remote <algorithms|analyze|job|metrics|cluster> [-addr URL] ...
              target a shared nobld daemon instead of computing locally
              (analyze <alg> [-n N] [-kind K] [-p P] [-sigma σ] [-wait]
               [-topology T] [-strategy S] [-seed X] for kind network;
               cluster [-key K] shows membership, peer health and which
               node owns a cache key)

flags:
  -quick      reduced problem sizes
  -format F   text | md | json | csv
  -out DIR    per-experiment files instead of stdout
  -parallel N concurrent experiments (0 = GOMAXPROCS); output is
              byte-identical at any parallelism
  -log-level L, -log-format F
              diagnostic slog output (debug|info|warn|error; text|json)

'nobl run' exits non-zero when any experiment errors or any check fails.
`)
}
