package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"netoblivious/internal/obs"
)

// A run of one workload is a sequence of sessions, each a child process
// of the bench binary: the child sets the workload up, prints readyLine,
// runs its measured passes and prints one sessionResult line.  Separate
// processes keep each workload's peak RSS its own and make the process
// start-up part of the measured set-up.

// childEnv marks a process as a session child.
const childEnv = "NOBBENCH_CHILD"

// processStart is when the process started; a session's time counts from
// it, so set-up spends the session's time too.
var processStart = time.Now()

// readyLine is what a child prints once its set-up is done.
const readyLine = "ready"

// probeCapacity bounds the events a traced session records.  It is far
// above what one traced pass emits, and any dropped event fails the
// session, so the bound never silently truncates a trace.
const probeCapacity = 1 << 22

// maxErrors bounds the failure messages a session reports.
const maxErrors = 5

// sessionResult is what a child reports to its parent.
type sessionResult struct {
	// Passes are the wall times (s) of the measured passes.
	Passes []float64 `json:"passes"`
	// Ops are the latencies (ms) of the operations that succeeded.
	Ops []float64 `json:"ops"`
	// Attempted and Failed count operations; a failed operation counts as
	// an infinite latency.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Layers are the per-layer metrics of a traced session, and Self each
	// layer's self time (ms) in it.
	Layers map[string]float64 `json:"layers,omitempty"`
	Self   map[string]float64 `json:"self,omitempty"`
}

// session is the child-side state of one session.
type session struct {
	seed   int64
	index  int
	probe  *obs.Probe // nil unless the session is traced
	golden *goldenSet
	nproc  int

	mu  sync.Mutex
	res sessionResult
	acc map[string]float64
}

// op records a successful operation of the given latency.
func (s *session) op(d time.Duration) {
	s.mu.Lock()
	s.res.Attempted++
	s.res.Ops = append(s.res.Ops, msOf(d))
	s.mu.Unlock()
}

// fail records a failed operation.
func (s *session) fail(err error) {
	s.mu.Lock()
	s.res.Attempted++
	s.res.Failed++
	if len(s.res.Errors) < maxErrors {
		s.res.Errors = append(s.res.Errors, err.Error())
	}
	s.mu.Unlock()
}

// check records an operation whose latency is not a sample of the
// workload's latency metric: a correctness check, or a request sent
// while the workload warms up or saturates the node.
func (s *session) check(err error) {
	if err != nil {
		s.fail(err)
		return
	}
	s.mu.Lock()
	s.res.Attempted++
	s.mu.Unlock()
}

// layer sets a per-layer metric; accumulate adds to a raw total that
// finishTrace turns into per-layer metrics.  Both are no-ops in untraced
// sessions.  A metric without samples (NaN) stays unset, and the run
// reports it as 0.
func (s *session) layer(name string, v float64) {
	if s.probe == nil || math.IsNaN(v) {
		return
	}
	s.mu.Lock()
	s.res.Layers[name] = v
	s.mu.Unlock()
}

func (s *session) accumulate(name string, v float64) {
	if s.probe == nil {
		return
	}
	s.mu.Lock()
	s.acc[name] += v
	s.mu.Unlock()
}

// span records a bench span around a call into a layer's public
// function; tid separates concurrent callers.  Free when untraced.
func (s *session) span(name string, tid int, start time.Time) {
	s.probe.SpanBetween("bench", name, tid, start, time.Now(), nil)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// childMain runs one session; its exit status is the session's.
func childMain(args []string) int {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	index := fs.Int("session", 0, "session number within the run")
	budget := fs.Duration("budget", 0, "session time from process start, set-up included; 0 runs exactly one pass, a negative budget none")
	traced := fs.Bool("traced", false, "record spans and report per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the session's Chrome trace here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runSession(w, *seed, *index, *budget, *traced, *traceOut, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s session %d: %v\n", w.name, *index, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSession sets the workload up, announces readiness on ready, and runs
// passes while the next is expected to end within the budget, counted
// from process start: at least one, exactly one for a zero budget, none
// for a negative one.
func runSession(w *workload, seed int64, index int, budget time.Duration, traced bool, traceOut string, ready io.Writer) (sessionResult, error) {
	golden, err := loadGolden()
	if err != nil {
		return sessionResult{}, err
	}
	s := &session{seed: seed, index: index, golden: golden, nproc: runtime.GOMAXPROCS(0)}
	if traced {
		s.probe = obs.NewBoundedProbe(probeCapacity)
		s.res.Layers = map[string]float64{}
		s.acc = map[string]float64{}
	}
	run, err := w.start(s)
	if err != nil {
		return sessionResult{}, fmt.Errorf("set-up: %w", err)
	}
	defer run.close()
	fmt.Fprintln(ready, readyLine)
	if budget < 0 {
		return s.res, nil
	}
	// Set-up work (warm-up passes, cache fills) is not part of the traced
	// pass.
	s.probe.Reset()
	deadline := processStart.Add(budget)
	var walls []float64 // seconds per pass, set-up between passes included
	for i := 0; ; i++ {
		t := time.Now()
		wall, err := run.pass(i)
		if err != nil {
			return sessionResult{}, fmt.Errorf("pass %d: %w", i, err)
		}
		s.res.Passes = append(s.res.Passes, wall.Seconds())
		walls = append(walls, time.Since(t).Seconds())
		if budget == 0 || time.Now().Add(time.Duration(median(walls)*float64(time.Second))).After(deadline) {
			break
		}
	}
	if traced {
		if err := s.finishTrace(traceOut); err != nil {
			return sessionResult{}, err
		}
	}
	return s.res, nil
}

// runner is a workload after set-up: pass runs one measured pass and
// returns the wall time the pass metric takes from it.
type runner struct {
	pass  func(i int) (time.Duration, error)
	close func()
}

// childRun is the parent's view of one finished session.
type childRun struct {
	setup float64 // seconds from process start to ready
	rssMB float64 // peak resident set of the child
	res   sessionResult
}

// spawn runs one session child and waits for it.
func spawn(ctx context.Context, w *workload, seed int64, index int, budget time.Duration, traced bool, traceOut string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-session", strconv.Itoa(index),
		"-budget", budget.String(),
		"-traced="+strconv.FormatBool(traced),
		"-trace-out", traceOut)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var cr childRun
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<28)
	for sc.Scan() {
		line := sc.Bytes()
		if cr.setup == 0 && string(line) == readyLine {
			cr.setup = time.Since(start).Seconds()
			continue
		}
		last = append(last[:0], line...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("%s session %d: %w", w.name, index, err)
	}
	if scanErr != nil {
		return childRun{}, scanErr
	}
	if cr.setup == 0 {
		return childRun{}, errors.New("session never reported ready")
	}
	if err := json.NewDecoder(bytes.NewReader(last)).Decode(&cr.res); err != nil {
		return childRun{}, fmt.Errorf("%s session %d: reading its result: %w", w.name, index, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}
