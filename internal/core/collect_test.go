package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"
)

// collector is a TraceSink that keeps a copy of every superstep record,
// pairs included: the in-memory trace this package's tests read, since
// a run keeps only its fold summary and lends each record to its sink.
// tracetest.Collector is the same for tests outside core; core's tests
// cannot import tracetest, which imports core.
type collector struct {
	V, LogV int
	Steps   []StepRec
}

// BeginTrace implements TraceSink.
func (c *collector) BeginTrace(v, logV int) error {
	if lv, err := TryLog2(v); err != nil || lv != logV {
		return fmt.Errorf("collector: log_v=%d inconsistent with v=%d", logV, v)
	}
	c.V, c.LogV, c.Steps = v, logV, c.Steps[:0]
	return nil
}

// WriteStep implements TraceSink by keeping a copy of the lent record.
func (c *collector) WriteStep(rec StepRec) error {
	c.Steps = append(c.Steps, copyStep(&rec))
	return nil
}

// copyStep copies a lent record, Degree and Pairs included; a nil list
// stays nil.
func copyStep(rec *StepRec) StepRec {
	cp := *rec
	cp.Degree = slices.Clone(rec.Degree)
	if rec.Pairs != nil {
		cp.Pairs = PairListOf(rec.Pairs.Pairs())
	}
	return cp
}

// EndTrace implements TraceSink.
func (c *collector) EndTrace(runErr error) error { return nil }

// collect runs prog with opts into a new collector and returns it with
// the run's Trace.
func collect[P any](v int, prog Program[P], opts Options) (*collector, *Trace, error) {
	c := &collector{}
	opts.Sink = c
	tr, err := RunOpt(v, prog, opts)
	return c, tr, err
}

// replay writes the collected steps into sink, lending each record as a
// run would.
func (c *collector) replay(sink TraceSink) error {
	if err := sink.BeginTrace(c.V, c.LogV); err != nil {
		return err
	}
	for _, rec := range c.Steps {
		if err := sink.WriteStep(rec); err != nil {
			return err
		}
	}
	return sink.EndTrace(nil)
}

// jsonBytes encodes the collected steps through TraceJSONWriter.
func (c *collector) jsonBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := c.replay(NewTraceJSONWriter(&buf)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// summary folds the collected steps into a FoldSummary.
func (c *collector) summary() (*FoldSummary, error) {
	fs, err := NewFoldSummary(c.V)
	if err != nil {
		return nil, err
	}
	for i := range c.Steps {
		if err := fs.Observe(&c.Steps[i]); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// readAll drains a TraceSource into a collector, copying each record
// (a source lends it only until the next Next).  It does not Close the
// source.
func readAll(src TraceSource) (*collector, error) {
	c := &collector{}
	if err := c.BeginTrace(src.V(), src.LogV()); err != nil {
		return nil, err
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return c, nil
		}
		if err != nil {
			return nil, err
		}
		c.Steps = append(c.Steps, copyStep(rec))
	}
}
