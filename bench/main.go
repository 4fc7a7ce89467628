// Command bench is the repository's one benchmark.  It drives the
// system only through public entry points — harness.RunSuite and its
// markdown sink, an in-process nobld (service.New behind an HTTP
// listener, service.Client) alone and as a 3-node fleet, and the alg,
// core, eval, dbsp and cachesim calls behind `nobl trace` and
// `nobl stat` — over five workloads, checks every output against a
// golden answer, and prints the end-to-end metrics (or, traced, the
// per-layer metrics) BENCHMARK.json names.  See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload W [-seed S] [-seconds T] [-trace 0|1] [-trace-dir D] [-out F]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//	bash bench/run.sh -update-golden
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics; a completed run exits 0 and
// reports failed operations there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"netoblivious/internal/harness"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named number the benchmark reports.
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"p50_ms", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayer lists the per-layer metrics of a traced run.  A workload that
// does not reach a layer reports 0 for it.
func perLayer() []metric {
	ms := []metric{
		{"service.queue_wait_ms.p50", "ms"},
		{"service.queue_wait_ms.p99", "ms"},
		{"service.job_ms.p50", "ms"},
		{"service.hit_ms.p50", "ms"},
		{"service.miss_ms.p50", "ms"},
		{"service.result_hit_ratio", "ratio"},
		{"service.refused", "count"},
		{"harness.trace_hit_ratio", "ratio"},
		{"harness.trace_computes", "count"},
		{"harness.trace_evictions", "count"},
	}
	for _, e := range harness.Experiments() {
		ms = append(ms, metric{"harness.experiment_s." + e.ID, "s"})
	}
	return append(ms,
		metric{"core.engine_ms", "ms"},
		metric{"core.supersteps", "count"},
		metric{"core.messages", "count"},
		metric{"core.superstep_us.p50", "us"},
		metric{"core.barrier_wait_ms", "ms"},
		metric{"core.trace_compute_ms", "ms"},
		metric{"codec.json_encode_mb_s", "MB/s"},
		metric{"codec.json_decode_mb_s", "MB/s"},
		metric{"codec.bin_encode_mb_s", "MB/s"},
		metric{"codec.bin_decode_mb_s", "MB/s"},
		metric{"codec.json_bytes_per_msg", "B/msg"},
		metric{"codec.bin_bytes_per_msg", "B/msg"},
		metric{"eval.fold_ms", "ms"},
		metric{"dbsp.commtime_ms", "ms"},
		metric{"cachesim.step_ms", "ms"},
		metric{"cachesim.accesses", "count"},
		metric{"network.route_ms", "ms"},
		metric{"network.hops", "count"},
		metric{"cluster.forward_ratio", "ratio"},
		metric{"cluster.forwarded_ms.p50", "ms"},
		metric{"cluster.local_ms.p50", "ms"},
		metric{"cluster.replica_hit_ratio", "ratio"},
		metric{"cluster.computes_per_key", "ratio"},
		metric{"loadgen.late_p99_ms", "ms"},
		metric{"bench.trace_overhead", "ratio"},
	)
}

// Session counts.  A run lasts about -seconds of wall time, set-up
// included.  A fresh-process workload runs one pass per session while the
// next is expected to end in time, but at least minSessions; the others
// split the time evenly over longSessions sessions.  Several sessions
// give set-up time a median.
const (
	minSessions  = 3
	longSessions = 4
	// setupProbes extra set-up-only sessions sample the set-up of a
	// fresh-process workload, which is only its process start: a few
	// milliseconds, too noisy for a median of a few.
	setupProbes = 20
)

// runDeadline bounds a whole run, so a hung session fails the run
// instead of outliving it.
const runDeadline = 170 * time.Second

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite, serve-cold, serve-warm, fleet or trace-pipe (default: all, in turn)")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 22, "wall time of the run, set-up included")
	trace := fs.Int("trace", 0, "1: run untraced and traced sessions in pairs and report the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes one Chrome trace per workload")
	out := fs.String("out", "", "append the run's result, tagged with workload and seed, to this file")
	compare := fs.Bool("compare", false, "compare two files of -out results: -compare A B")
	update := fs.Bool("update-golden", false, "recompute "+goldenFile+" from the current code")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	case *update:
		path, err := updateGolden()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "bench: wrote %s\n", path)
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	for _, w := range todo {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, result: res}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		var line []byte
		if len(todo) == 1 {
			line, err = json.Marshal(res)
		} else {
			line, err = json.Marshal(rec)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// runWorkload runs one workload's sessions and summarizes them.
func runWorkload(w *workload, seed int64, budget time.Duration, traced bool, traceDir string, stdout io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	if traced {
		return runTraced(ctx, w, seed, budget, traceDir, stdout)
	}
	start := time.Now()
	var runs []childRun
	var walls []float64 // seconds per fresh-process session
	for i := 0; ; i++ {
		sessionBudget := time.Duration(0) // one pass
		if w.fresh {
			if i >= minSessions && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > budget {
				break
			}
		} else {
			if i == longSessions {
				break
			}
			sessionBudget = time.Until(start.Add(budget * time.Duration(i+1) / longSessions))
		}
		t := time.Now()
		cr, err := spawn(ctx, w, seed, i, sessionBudget, false, "")
		if err != nil {
			return result{}, err
		}
		walls = append(walls, time.Since(t).Seconds())
		runs = append(runs, cr)
	}
	var setups, rss, passes, ops []float64
	if w.fresh {
		for i := 0; i < setupProbes; i++ {
			cr, err := spawn(ctx, w, seed, len(runs)+i, -1, false, "")
			if err != nil {
				return result{}, err
			}
			setups = append(setups, cr.setup)
		}
	}
	res := result{Metrics: map[string]value{}}
	for _, cr := range runs {
		setups = append(setups, cr.setup)
		rss = append(rss, cr.rssMB)
		passes = append(passes, cr.res.Passes...)
		ops = append(ops, cr.res.Ops...)
		for range cr.res.Failed {
			ops = append(ops, math.Inf(1))
		}
		res.Attempted += cr.res.Attempted
		res.Failed += cr.res.Failed
		printErrors(w, cr.res)
	}
	res.Correct = res.Failed == 0
	vals := map[string]float64{
		"setup_s":     median(setups),
		"pass_s":      median(passes),
		"p50_ms":      median(ops),
		"rss_peak_mb": median(rss),
	}
	notes := map[string]string{
		"setup_s":     fmt.Sprintf("median of %d set-ups", len(setups)),
		"pass_s":      fmt.Sprintf("median of %d passes", len(passes)),
		"p50_ms":      opsNote(ops),
		"rss_peak_mb": fmt.Sprintf("median of %d sessions", len(rss)),
	}
	fmt.Fprintf(stdout, "%s  seed %d: %d sessions, %d passes, %d of %d operations failed (fail_frac %.4g)\n",
		w.name, seed, len(runs), len(passes), res.Failed, res.Attempted, failFrac(res))
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{finite(vals[m.name]), m.unit}
		fmt.Fprintf(stdout, "  %-14s %12.6g %-4s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
	return res, nil
}

// runTraced runs untraced and traced sessions in pairs, one pass each,
// while the next pair is expected to end within the time, and reports
// the per-layer metrics as medians over the traced sessions.  The first
// traced session writes the workload's Chrome trace.
func runTraced(ctx context.Context, w *workload, seed int64, budget time.Duration, traceDir string, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	tracePath := filepath.Join(traceDir, w.name+".json")
	res := result{Metrics: map[string]value{}}
	layers := map[string][]float64{}
	self := map[string][]float64{}
	var overhead []float64
	start := time.Now()
	var pair time.Duration
	for i := 0; i == 0 || time.Since(start)+pair <= budget; i++ {
		t := time.Now()
		plain, err := spawn(ctx, w, seed, i, 0, false, "")
		if err != nil {
			return result{}, err
		}
		path := ""
		if i == 0 {
			path = tracePath
		}
		traced, err := spawn(ctx, w, seed, i, 0, true, path)
		if err != nil {
			return result{}, err
		}
		pair = time.Since(t)
		for _, cr := range []childRun{plain, traced} {
			res.Attempted += cr.res.Attempted
			res.Failed += cr.res.Failed
			printErrors(w, cr.res)
		}
		overhead = append(overhead, median(traced.res.Passes)/median(plain.res.Passes))
		for k, v := range traced.res.Layers {
			layers[k] = append(layers[k], v)
		}
		for k, v := range traced.res.Self {
			self[k] = append(self[k], v)
		}
	}
	res.Correct = res.Failed == 0
	layers["bench.trace_overhead"] = overhead
	fmt.Fprintf(stdout, "%s  seed %d traced: %d session pairs, %d of %d operations failed; Chrome trace %s\n",
		w.name, seed, len(overhead), res.Failed, res.Attempted, tracePath)
	for _, m := range perLayer() {
		v := 0.0
		if xs := layers[m.name]; len(xs) > 0 {
			v = median(xs)
		}
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stdout, "  %-30s %12.6g %-6s median of %d traced sessions\n", m.name, v, m.unit, len(layers[m.name]))
	}
	for _, l := range selfLayers {
		if xs := self[l]; len(xs) > 0 {
			fmt.Fprintf(stdout, "  self time %-20s %12.6g ms\n", l, median(xs))
		}
	}
	return res, nil
}

// finite maps a latency that failures made infinite (or left without
// samples) to the largest float, which JSON can carry and every
// comparison reads as worst.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func failFrac(r result) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// opsNote describes an operation-latency sample: its size and its tail.
func opsNote(ops []float64) string {
	p, v, n, ok := tail(ops)
	if !ok {
		return fmt.Sprintf("%d samples, too few for a tail", n)
	}
	return fmt.Sprintf("%d samples; p%g %.6g ms", n, p, v)
}

func printErrors(w *workload, r sessionResult) {
	for _, e := range r.Errors {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, e)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
