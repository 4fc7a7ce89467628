package core

import (
	"fmt"
	"io"
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
//     at most one goroutine at a time.  Ownership of the record —
//     including rec.Pairs — transfers to the sink: accumulating sinks
//     retain it, encoding sinks may Release the pairs after use.
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

// BeginTrace implements TraceSink: a Trace is the accumulating sink,
// collecting every step in memory exactly as a non-streaming run would.
func (t *Trace) BeginTrace(v, logV int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lv, err := TryLog2(v); err != nil || lv != logV {
		return fmt.Errorf("core: trace sink: log_v=%d inconsistent with v=%d", logV, v)
	}
	t.V = v
	t.LogV = logV
	t.Steps = t.Steps[:0]
	return nil
}

// WriteStep implements TraceSink by retaining the record.
func (t *Trace) WriteStep(rec StepRec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Steps = append(t.Steps, rec)
	return nil
}

// EndTrace implements TraceSink.  The accumulated steps of a failed run
// are kept — they are diagnostic, and the run's caller already received
// the error.
func (t *Trace) EndTrace(runErr error) error { return nil }

// DiscardSink accepts and releases every step.  It exists for
// measurement: a run into a DiscardSink exposes the engine's true
// streaming footprint (TestStreamedRunMemoryBounded measures with it).
type DiscardSink struct {
	steps    int
	messages int64
}

// BeginTrace implements TraceSink.
func (d *DiscardSink) BeginTrace(v, logV int) error { return nil }

// WriteStep implements TraceSink, returning the record's pooled pair
// chunks for reuse.
func (d *DiscardSink) WriteStep(rec StepRec) error {
	d.steps++
	d.messages += rec.Messages
	rec.Pairs.Release()
	return nil
}

// EndTrace implements TraceSink.
func (d *DiscardSink) EndTrace(runErr error) error { return nil }

// Steps returns the number of supersteps written to the sink, and
// Messages their message total.
func (d *DiscardSink) Steps() int      { return d.steps }
func (d *DiscardSink) Messages() int64 { return d.messages }

// TraceSource iterates a trace one superstep at a time, so analyses can
// process traces far larger than RAM.  Sources exist over an in-memory
// Trace (Trace.Source), a JSON or binary trace stream (NewTraceSource),
// or a trace file of either format (OpenTraceFile).
//
// Next returns the following superstep, or io.EOF after the last one.
// The returned record is only valid until the next call to Next —
// streaming readers reuse decode state — so consumers must copy
// anything they retain.  Close releases the underlying stream; it is
// safe to call after an error or EOF, and required even then when the
// source owns a file handle.
type TraceSource interface {
	V() int
	LogV() int
	Next() (*StepRec, error)
	Close() error
}

// traceSliceSource iterates an in-memory Trace.
type traceSliceSource struct {
	tr  *Trace
	idx int
}

// Source returns a TraceSource over the trace's recorded steps, letting
// in-memory traces flow through the same single-pass analyses as
// streamed files.
func (t *Trace) Source() TraceSource { return &traceSliceSource{tr: t} }

func (s *traceSliceSource) V() int    { return s.tr.V }
func (s *traceSliceSource) LogV() int { return s.tr.LogV }

func (s *traceSliceSource) Next() (*StepRec, error) {
	if s.idx >= len(s.tr.Steps) {
		return nil, io.EOF
	}
	rec := &s.tr.Steps[s.idx]
	s.idx++
	return rec, nil
}

func (s *traceSliceSource) Close() error { return nil }

// FoldSummary is the O(log²v) fixed-size accumulator every paper metric
// reads: one Observe per superstep maintains the superstep counts S_i(n)
// and the full fold-degree matrix F_i(n, 2^j) for every fold j at once,
// which is everything H(n,p,σ), wiseness, fullness and the D-BSP
// communication time of Eq. 2 need.  It is the only code that derives S
// and F from superstep records.  Summarizing a TraceSource therefore
// costs O(steps·log v) time and O(log²v) memory regardless of how many
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
	fs := &FoldSummary{v: v, logV: logV}
	fs.s = make([]int64, fs.LabelBound())
	fs.f = make([][]int64, logV+1)
	for lp := 1; lp <= logV; lp++ {
		fs.f[lp] = make([]int64, lp)
	}
	return fs, nil
}

// Observe folds one superstep into the summary.  It validates the same
// structural invariants both codec readers (TraceJSONReader,
// TraceBinaryReader) enforce, so summarizing an untrusted stream is
// safe.
func (fs *FoldSummary) Observe(rec *StepRec) error {
	i := fs.steps
	if rec.Label < 0 || rec.Label >= fs.LabelBound() {
		return fmt.Errorf("core: trace step %d has invalid label %d", i, rec.Label)
	}
	if len(rec.Degree) != fs.logV+1 {
		return fmt.Errorf("core: trace step %d has %d degree entries, want %d", i, len(rec.Degree), fs.logV+1)
	}
	for j, d := range rec.Degree {
		if d < 0 {
			return fmt.Errorf("core: trace step %d degree[%d] negative", i, j)
		}
		if j <= rec.Label && d != 0 {
			return fmt.Errorf("core: trace step %d has nonzero degree at fold %d <= label %d", i, j, rec.Label)
		}
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

// Summarize drains a TraceSource into a FoldSummary in one pass.  It
// does not Close the source.
func Summarize(src TraceSource) (*FoldSummary, error) {
	fs, err := NewFoldSummary(src.V())
	if err != nil {
		return nil, err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return fs, nil
		}
		if err != nil {
			return nil, err
		}
		if err := fs.Observe(rec); err != nil {
			return nil, err
		}
	}
}

// Summary summarizes the trace's steps into a FoldSummary: the one pass
// every metric of the trace is computed from.
func (t *Trace) Summary() (*FoldSummary, error) {
	return Summarize(t.Source())
}
