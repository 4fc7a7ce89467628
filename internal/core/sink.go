package core

import (
	"fmt"
	"os"
)

// TraceSink receives the supersteps of a run as they complete.  Selected
// through Options.Sink, it is how recording runs in O(largest superstep)
// memory instead of O(total messages): every engine emits each finished
// StepRec to the sink at the superstep barrier that completes it and
// retains nothing, so a run's peak footprint is the pending superstep
// window, not the whole trace.
//
// The contract:
//
//   - BeginTrace is called exactly once, before any step, with the
//     machine's dimensions.  Sinks that can only absorb one trace (the
//     codec writers) must reject a second BeginTrace.
//   - WriteStep is called once per superstep, in superstep order, from
//     at most one goroutine at a time.  The record is lent, Degree and
//     Pairs included: it is valid only until WriteStep returns, after
//     which the run recycles its pair chunks.  A sink that keeps a
//     record copies it; the sinkown analyzer rejects a WriteStep that
//     stores the record, its Pairs or its Degree.
//   - EndTrace is called exactly once, after the last step, with the
//     run's error (nil on success).  A failed or cancelled run still
//     gets its EndTrace, which is where file-backed sinks discard
//     partial output instead of leaving a truncated trace behind.
//
// An error from any method aborts the run at the next superstep
// boundary.
type TraceSink interface {
	BeginTrace(v, logV int) error
	WriteStep(rec StepRec) error
	EndTrace(runErr error) error
}

// DiscardSink accepts and drops every step.  It exists for
// measurement: a run into a DiscardSink exposes the engine's true
// streaming footprint (TestStreamedRunMemoryBounded measures with it),
// and the run's Trace still counts and summarizes the steps.
type DiscardSink struct{}

// BeginTrace implements TraceSink.
func (d *DiscardSink) BeginTrace(v, logV int) error { return nil }

// WriteStep implements TraceSink.
func (d *DiscardSink) WriteStep(rec StepRec) error { return nil }

// EndTrace implements TraceSink.
func (d *DiscardSink) EndTrace(runErr error) error { return nil }

// TraceFileSink is a TraceSink writing a JSON trace file atomically:
// output goes to a temporary sibling (path + ".tmp") created at
// BeginTrace and renamed over path only when EndTrace sees a successful
// run.  A failed or cancelled run removes the temporary, so a partial
// trace file is never left behind under the target name.  A target that
// exists and is not a regular file (a named pipe, a device) is written
// in place instead: it cannot be replaced, only fed.
type TraceFileSink struct {
	path    string
	inPlace bool
	f       *os.File
	inner   *TraceJSONWriter
}

// NewTraceFileSink returns a sink that will write path.  Nothing touches
// the filesystem until BeginTrace.
func NewTraceFileSink(path string) *TraceFileSink {
	return &TraceFileSink{path: path}
}

func (fs *TraceFileSink) tmpPath() string { return fs.path + ".tmp" }

// BeginTrace implements TraceSink.
func (fs *TraceFileSink) BeginTrace(v, logV int) error {
	if fs.inner != nil {
		return fmt.Errorf("core: trace writer: BeginTrace called twice; a codec writer serializes exactly one trace (one machine per run)")
	}
	name, flag := fs.tmpPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC
	if st, err := os.Stat(fs.path); err == nil && !st.Mode().IsRegular() {
		fs.inPlace = true
		name, flag = fs.path, os.O_WRONLY
	}
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return fmt.Errorf("core: trace sink: %w", err)
	}
	fs.f = f
	fs.inner = NewTraceJSONWriter(f)
	return fs.inner.BeginTrace(v, logV)
}

// WriteStep implements TraceSink.
func (fs *TraceFileSink) WriteStep(rec StepRec) error {
	if fs.inner == nil {
		return fmt.Errorf("core: trace writer: WriteStep outside BeginTrace/EndTrace")
	}
	return fs.inner.WriteStep(rec)
}

// EndTrace implements TraceSink: finalize and rename on success, remove
// the temporary on failure.  A failed run's error is the caller's
// already, so it is not returned again.
func (fs *TraceFileSink) EndTrace(runErr error) error {
	if fs.f == nil {
		return nil
	}
	f := fs.f
	fs.f = nil
	err := runErr
	if err == nil {
		err = fs.inner.EndTrace(nil)
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: trace sink: %w", cerr)
	}
	if err == nil && !fs.inPlace {
		if rerr := os.Rename(fs.tmpPath(), fs.path); rerr != nil {
			err = fmt.Errorf("core: trace sink: %w", rerr)
		}
	}
	if err != nil && !fs.inPlace {
		os.Remove(fs.tmpPath())
	}
	if runErr != nil {
		return nil
	}
	return err
}

// TraceSource iterates a trace one superstep at a time, so analyses can
// process traces far larger than RAM.  Sources exist over a JSON or
// binary trace stream (NewTraceSource) or a trace file of either format
// (OpenTraceFile).
//
// Next returns the following superstep, or io.EOF after the last one.
// The returned record is lent, as a run lends one to WriteStep: it and
// its Degree and Pairs are valid only until the next call to Next,
// because a reader may decode every step into the same buffers.  A
// consumer that keeps a record copies it.  Close releases the
// underlying stream; it is safe to call after an error or EOF, and
// required even then when the source owns a file handle.
type TraceSource interface {
	V() int
	LogV() int
	Next() (*StepRec, error)
	Close() error
}

// FoldSummary is the O(log²v) fixed-size accumulator every paper metric
// reads: one Observe per superstep maintains the superstep counts S_i(n)
// and the full fold-degree matrix F_i(n, 2^j) for every fold j at once,
// which is everything H(n,p,σ), wiseness, fullness and the D-BSP
// communication time of Eq. 2 need.  It is the only code that derives S
// and F from superstep records.  Every run builds one as its supersteps
// complete (Trace.Summary); observing a decoded TraceSource costs
// O(steps·log v) time and O(log²v) memory regardless of how many
// messages the trace records.
type FoldSummary struct {
	v, logV  int
	steps    int
	messages int64
	s        []int64   // s[i]: number of i-supersteps
	f        [][]int64 // f[lp][i]: F_i(n, 2^lp), for 1 <= lp <= logV
}

// NewFoldSummary returns an empty summary for a machine with v VPs.
func NewFoldSummary(v int) (*FoldSummary, error) {
	logV, err := TryLog2(v)
	if err != nil {
		return nil, fmt.Errorf("core: fold summary: %w", err)
	}
	return newFoldSummary(v, logV), nil
}

func newFoldSummary(v, logV int) *FoldSummary {
	fs := &FoldSummary{v: v, logV: logV}
	fs.s = make([]int64, fs.LabelBound())
	fs.f = make([][]int64, logV+1)
	for lp := 1; lp <= logV; lp++ {
		fs.f[lp] = make([]int64, lp)
	}
	return fs
}

// Observe folds one superstep into the summary.  It validates the same
// structural invariants both codec readers (TraceJSONReader,
// TraceBinaryReader) enforce, so summarizing an untrusted stream is
// safe.
func (fs *FoldSummary) Observe(rec *StepRec) error {
	if err := validateStep(rec, fs.steps, fs.logV, fs.LabelBound()); err != nil {
		return err
	}
	fs.steps++
	fs.messages += rec.Messages
	fs.s[rec.Label]++
	for lp := rec.Label + 1; lp <= fs.logV; lp++ {
		fs.f[lp][rec.Label] += rec.Degree[lp]
	}
	return nil
}

// V returns the machine width the summary was built for, LogV its log.
func (fs *FoldSummary) V() int    { return fs.v }
func (fs *FoldSummary) LogV() int { return fs.logV }

// LabelBound returns the exclusive upper bound on superstep labels,
// max{1, log2 v} per the paper's log convention.
func (fs *FoldSummary) LabelBound() int {
	if fs.logV < 1 {
		return 1
	}
	return fs.logV
}

// NumSupersteps returns the number of observed supersteps, and
// TotalMessages their message total.
func (fs *FoldSummary) NumSupersteps() int   { return fs.steps }
func (fs *FoldSummary) TotalMessages() int64 { return fs.messages }

// S returns the vector S_i(n), for 0 <= i < LabelBound(): the number of
// i-supersteps observed.  The slice is a copy.
func (fs *FoldSummary) S() []int64 {
	out := make([]int64, len(fs.s))
	copy(out, fs.s)
	return out
}

// TryF returns the vector F_i(n, p), for 0 <= i < log2(p): the
// cumulative degree of all i-supersteps when the algorithm is folded on
// p processors (Section 2 of the paper).  p must be a power of two with
// 1 < p <= v; p = 1, whose folding exchanges no messages, has no F
// entries.  The slice is a copy.
func (fs *FoldSummary) TryF(p int) ([]int64, error) {
	lp := logOf(p)
	if lp < 1 || lp > fs.logV {
		return nil, fmt.Errorf("core: fold summary: p=%d out of range for v=%d (need a power of two with 1 < p <= v)", p, fs.v)
	}
	out := make([]int64, lp)
	copy(out, fs.f[lp])
	return out, nil
}

// F is TryF for trusted p: any p TryF rejects panics.
func (fs *FoldSummary) F(p int) []int64 {
	f, err := fs.TryF(p)
	if err != nil {
		panic(err.Error())
	}
	return f
}
